//! A resilient, embeddable job-service core over the simulator.
//!
//! ROADMAP's "long-running simulation service" needs more than a loop
//! around [`TimingSim`]: jobs arrive faster than they finish, hostile
//! inputs panic or spin forever, and the process gets killed mid-write.
//! This module is that hardening layer — the `reproduce serve` subcommand
//! is a thin CLI over it:
//!
//! * **bounded queue, explicit shedding** — [`Service::submit`] either
//!   accepts a job or rejects it *now* with a reason
//!   ([`SubmitOutcome::Rejected`]); nothing blocks and nothing queues
//!   without bound. Rejections are also emitted on the results channel,
//!   so the accounting identity (every submitted job reaches exactly one
//!   terminal state) holds from the result stream alone.
//! * **deadlines and cancellation** — each job may carry a wall-clock
//!   budget; the worker arms a [`CancelToken`] that the timing simulator
//!   polls cooperatively ([`peakperf_sim::cancel::CHECK_INTERVAL_CYCLES`]),
//!   so runaway simulations abort with a typed error and a per-warp
//!   snapshot instead of hanging a worker. [`Service::cancel`] aborts a
//!   queued *or* in-flight job by id ([`JobKind::Fault`] only queued).
//! * **panic isolation, one attempt** — each job runs at most once,
//!   under [`run_isolated`], so a panicking job becomes a `failed` result
//!   (message + condensed backtrace) and the worker survives. Nothing is
//!   retried: every job kind is a deterministic simulation, so a failure
//!   would only repeat.
//! * **graceful shutdown** — [`Service::drain`] stops intake and runs the
//!   queue dry; [`Service::shutdown_now`] additionally cancels in-flight
//!   work that polls its token and reports queued jobs as `cancelled`. Either way every
//!   accepted job still produces its terminal result.
//! * **observability** — a [`Health`] snapshot (queue depth, in-flight,
//!   per-status counters) backed by atomics; and, when a
//!   [`journal::Journal`] is attached via [`Service::start_with_journal`],
//!   a structured event for every lifecycle transition, queue pushes and
//!   pops with the depth they left (the flight recorder — see the
//!   [`journal`] module docs). No journal attached means no events are
//!   even constructed, and no thread runs besides the workers.
//!
//! Terminal statuses are `completed`, `failed`, `cancelled`, `deadline`
//! and `rejected`; their counts must sum to `submitted` once the service
//! has drained — [`Health::check_drained`] states this identity once, for
//! the exit code of `reproduce serve` and for [`check`], which
//! `reproduce check` runs on the emitted `peakperf-service-v1` document:
//! the one record of a serve run, holding its results, its counters and
//! its journal.

pub mod journal;

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use peakperf_arch::{Generation, GpuConfig};
use peakperf_sass::KernelBuilder;
use peakperf_sim::timing::{Hooks, TimingSim};
use peakperf_sim::{CancelCause, CancelSource, CancelToken, GlobalMemory, LaunchConfig, SimError};

use peakperf_sim::{ensure, obj, Json};

use crate::exec::run_isolated;
use crate::fault::{FuzzCase, Outcome, SeedSpec};
use crate::profiling;
use crate::report::{envelope, Table, PAPER_GPUS};
use journal::{check_events, derive_counts, Event, EventKind, Journal};

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// What one job runs. The hostile kinds (`Spin`, `Panic`) exist so the
/// chaos-soak mode (and the tests) can prove the resilience properties
/// against worst-case inputs, not just well-behaved ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Profile one named [`profiling::TARGETS`] target (no trace capture);
    /// the structured `peakperf-profile-v1` entry lands in
    /// [`JobResult::report`].
    Profile {
        /// Target name, e.g. `fermi_ffma`.
        target: String,
    },
    /// Run one differential fuzz mutant through [`crate::fault::run_case`]
    /// — the service's "untrusted kernel" ingestion path. The mutant's own
    /// step/cycle budgets bound the run, which does not poll the job's
    /// token (a token switches off the recurrence skip, DESIGN.md §5.1,
    /// and hang mutants would step to their cycle limit): a deadline or a
    /// cancel stops a fault job only before its attempt starts.
    Fault {
        /// The fully-specified mutant.
        case: FuzzCase,
    },
    /// An intentionally infinite kernel: completes only by firing its
    /// token (deadline or [`cancel_at_cycle`](JobSpec::cancel_at_cycle)),
    /// else the simulator's cycle watchdog fails it.
    Spin,
    /// Panics — proves the isolation boundary.
    Panic,
}

impl JobKind {
    /// Every kind tag [`JobKind::name`] can return.
    pub const NAMES: [&'static str; 4] = ["profile", "fault", "spin", "panic"];

    /// Stable kind tag used in job/result documents.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Profile { .. } => "profile",
            JobKind::Fault { .. } => "fault",
            JobKind::Spin => "spin",
            JobKind::Panic => "panic",
        }
    }
}

/// One job submission (`peakperf-job-v1` in JSONL form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Caller-chosen identifier, echoed on the result.
    pub id: String,
    /// What to run.
    pub kind: JobKind,
    /// Wall-clock budget for the job, measured from the moment a worker
    /// picks it up. `None` = no deadline (hostile simulations are still
    /// bounded by the cycle watchdog).
    pub deadline_ms: Option<u64>,
    /// Deterministic abort: fire the job's token at this simulated cycle
    /// (only meaningful for kinds that run the timing simulator).
    pub cancel_at_cycle: Option<u64>,
}

impl JobSpec {
    /// A job with no deadline and no cycle trigger.
    pub fn new(id: impl Into<String>, kind: JobKind) -> JobSpec {
        JobSpec {
            id: id.into(),
            kind,
            deadline_ms: None,
            cancel_at_cycle: None,
        }
    }

    /// The `peakperf-job-v1` object (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut doc = obj!(self; schema = "peakperf-job-v1", id, kind = self.kind.name());
        match &self.kind {
            JobKind::Profile { target } => doc.push("target", target.as_str()),
            JobKind::Fault { case } => doc.extend(case.to_json()),
            JobKind::Spin | JobKind::Panic => {}
        }
        doc.push_some("deadline_ms", self.deadline_ms);
        doc.push_some("cancel_at_cycle", self.cancel_at_cycle);
        doc
    }

    /// Read one `peakperf-job-v1` object.
    ///
    /// # Errors
    ///
    /// A wrong/missing `schema`, an unknown `kind`, missing or mistyped
    /// kind-specific fields, or a member [`JobSpec::to_json`] never writes
    /// for that kind (a misspelled `deadline_ms` must not run the job
    /// without a deadline).
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let (schema, id) = (doc.text("schema"), doc.text("id"));
        if schema != "peakperf-job-v1" {
            return Err(format!("`schema` must be peakperf-job-v1, got `{schema}`"));
        }
        if id.is_empty() {
            return Err("job needs a non-empty string `id`".to_owned());
        }
        let optional = |key: &str| match doc[key] {
            Json::Null => Ok(None),
            _ => doc.need_u64(key).map(Some),
        };
        let kind = match doc.need_str("kind")? {
            "profile" => JobKind::Profile {
                target: doc.need_str("target")?.to_owned(),
            },
            "fault" => JobKind::Fault {
                case: FuzzCase::from_json(doc)?,
            },
            "spin" => JobKind::Spin,
            "panic" => JobKind::Panic,
            other => {
                return Err(format!(
                    "unknown job kind `{other}`; known: {}",
                    JobKind::NAMES.join(" ")
                ))
            }
        };
        let spec = JobSpec {
            id: id.to_owned(),
            kind,
            deadline_ms: optional("deadline_ms")?,
            cancel_at_cycle: optional("cancel_at_cycle")?,
        };
        let written = JobSpec {
            deadline_ms: Some(0),
            cancel_at_cycle: Some(0),
            ..spec.clone()
        }
        .to_json();
        let known = written.keys();
        if let Some(key) = doc.keys().into_iter().find(|key| !known.contains(key)) {
            let kind = spec.kind.name();
            return Err(format!("unknown member `{key}` in a {kind} job"));
        }
        Ok(spec)
    }
}

/// Parse one `peakperf-job-v1` JSONL line.
///
/// # Errors
///
/// Malformed JSON, or anything [`JobSpec::from_json`] rejects.
pub fn parse_job_line(line: &str) -> Result<JobSpec, String> {
    JobSpec::from_json(&Json::parse(line)?)
}

/// Parse a whole `--jobs` file (one `peakperf-job-v1` object per
/// non-empty line).
///
/// # Errors
///
/// The first bad line, with its 1-based line number.
pub fn parse_jobs_jsonl(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        jobs.push(parse_job_line(line).map_err(|e| format!("jobs line {}: {e}", i + 1))?);
    }
    Ok(jobs)
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The terminal state of one submitted job. Every submission reaches
/// exactly one of these (the accounting identity the schema validator
/// checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Its attempt failed (structured error or isolated panic).
    Failed,
    /// Aborted by [`Service::cancel`], a cycle trigger, or shutdown.
    Cancelled,
    /// Its wall-clock deadline elapsed.
    Deadline,
    /// Shed at submission (queue full or service shutting down).
    Rejected,
}

impl JobStatus {
    /// Every terminal status, in the order the accounting identity sums
    /// them.
    pub const ALL: [JobStatus; 5] = [
        JobStatus::Completed,
        JobStatus::Failed,
        JobStatus::Cancelled,
        JobStatus::Deadline,
        JobStatus::Rejected,
    ];

    /// Stable status tag used in result documents.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Deadline => "deadline",
            JobStatus::Rejected => "rejected",
        }
    }
}

/// The terminal result of one job: an element of the service document's
/// `results`.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The submission's id.
    pub id: String,
    /// The submission's kind tag.
    pub kind: &'static str,
    /// Terminal state.
    pub status: JobStatus,
    /// Attempts actually started: 1 for a job that ran, 0 for one that
    /// never did (rejected, cancelled while queued, or aborted between
    /// pickup and its attempt).
    pub attempts: u32,
    /// Wall time from worker pickup to the terminal state (0 for
    /// rejected jobs).
    pub wall_ms: f64,
    /// Human-readable summary: completion note, error message (with
    /// backtrace for panics), rejection reason, or abort diagnostics.
    pub detail: String,
    /// Simulated cycles, when the job ran the timing simulator to
    /// completion.
    pub cycles: Option<u64>,
    /// The structured report for kinds that produce one (profile jobs:
    /// their `peakperf-profile-v1` entry). Not serialized into the result
    /// object; available to embedders.
    pub report: Option<Json>,
    /// Microseconds the job waited in the queue before a worker picked
    /// it up. `None` for jobs that never reached a worker (rejected, or
    /// cancelled while queued).
    pub queue_wait_us: Option<u64>,
    /// Microseconds spent executing the attempt (excluding queue wait).
    /// `None` for jobs no worker picked up.
    pub attempts_wall_us: Option<u64>,
    /// Which trigger path aborted the job, for `cancelled`/`deadline`
    /// results (`api | cycle | deadline | shutdown`).
    pub cancel_source: Option<CancelSource>,
}

impl JobResult {
    /// The result of a job no worker ever started: shed at submission or
    /// cancelled while queued.
    fn unrun(spec: JobSpec, status: JobStatus, detail: &str, source: Option<CancelSource>) -> Self {
        JobResult {
            id: spec.id,
            kind: spec.kind.name(),
            status,
            attempts: 0,
            wall_ms: 0.0,
            detail: detail.to_owned(),
            cycles: None,
            report: None,
            queue_wait_us: None,
            attempts_wall_us: None,
            cancel_source: source,
        }
    }

    /// The result object.
    pub fn to_json(&self) -> Json {
        let mut doc = obj!(self; id, kind, status = self.status.as_str(), attempts, wall_ms);
        doc.push_some("queue_wait_us", self.queue_wait_us);
        doc.push_some("attempts_wall_us", self.attempts_wall_us);
        doc.push_some(
            "cancel_source",
            self.cancel_source.map(CancelSource::as_str),
        );
        doc.push_some("cycles", self.cycles);
        doc.push("detail", self.detail.as_str());
        doc
    }
}

/// Check one result object (called `at` in the messages) and return its
/// status: shaped like a result this module writes, a known job kind, a
/// *terminal* status — a hung or lost job cannot produce a valid
/// result — and an attempt count that fits it: exactly one for a job
/// that completed or failed; none for a job shed or cancelled while
/// queued; at most one for a job aborted after a worker picked it up,
/// whose token may fire before its attempt starts.
fn check_result(result: &Json, at: &str, errors: &mut Vec<String>) -> Option<JobStatus> {
    let spec = JobSpec::new("", JobKind::Spin);
    let sample = JobResult::unrun(spec, JobStatus::Rejected, "", None).to_json();
    result.conforms(&sample, &at, errors);
    let kind = result.text("kind");
    ensure!(
        errors,
        JobKind::NAMES.contains(&kind),
        "{at}: unknown job kind `{kind}`"
    );
    let status = result.text("status");
    let Ok(terminal) = result.need_tag("status", &JobStatus::ALL, JobStatus::as_str) else {
        errors.push(format!("{at}: status `{status}` is not terminal"));
        return None;
    };
    let attempts = result.count("attempts");
    // Only a worker measures a queue wait.
    let picked_up = result.get("queue_wait_us").is_some();
    let fits = match terminal {
        JobStatus::Rejected => attempts == 0,
        JobStatus::Completed | JobStatus::Failed => attempts == 1,
        JobStatus::Cancelled | JobStatus::Deadline => attempts <= u64::from(picked_up),
    };
    ensure!(
        errors,
        fits,
        "{at}: {status} job reports {attempts} attempt(s)"
    );
    Some(terminal)
}

/// The reasons [`Service::submit`] sheds a job: the queue is full, or the
/// service has stopped taking work.
pub const REJECT_REASONS: [&str; 2] = ["overloaded", "shutting-down"];

/// The immediate answer to [`Service::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued; the terminal result will arrive on the results channel.
    Accepted,
    /// Shed: the job will not run. A `rejected` result is also emitted on
    /// the results channel so stream-side accounting stays complete.
    Rejected {
        /// Why (`overloaded` or `shutting-down`).
        reason: &'static str,
    },
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Health {
    /// Jobs ever submitted (accepted + rejected).
    pub submitted: u64,
    /// Jobs shed at submission.
    pub rejected: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs that failed terminally.
    pub failed: u64,
    /// Jobs cancelled (explicitly or by shutdown).
    pub cancelled: u64,
    /// Jobs that exceeded their deadline.
    pub deadline: u64,
    /// Always 0: jobs run once, and no document or log line shows it.
    ///
    /// Exists only for the benchmark package, whose `service_mix`
    /// workload reads it (`benchmark/src/workloads/service_mix.rs`).
    /// ROADMAP item 8 deletes it together with that read.
    pub retried: u64,
    /// Jobs currently executing on a worker.
    pub in_flight: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// High-water mark of the queue depth (never exceeds the configured
    /// capacity).
    pub queue_depth_max: u64,
}

impl Health {
    /// The six ledger counters as a JSON object: the journal's `derived`
    /// object, and the head of [`Health::to_json`].
    pub fn ledger_json(&self) -> Json {
        obj!(self; submitted, completed, failed, cancelled, deadline, rejected)
    }

    /// The `health` object of the service document.
    pub fn to_json(&self) -> Json {
        let mut doc = self.ledger_json();
        doc.extend(obj!(self; in_flight, queue_depth, queue_depth_max));
        doc
    }

    /// Read back what [`Health::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// The first key that is missing or not a non-negative integer.
    pub fn from_json(obj: &Json) -> Result<Health, String> {
        let count = |key| obj.need_u64(key);
        Ok(Health {
            submitted: count("submitted")?,
            rejected: count("rejected")?,
            completed: count("completed")?,
            failed: count("failed")?,
            cancelled: count("cancelled")?,
            deadline: count("deadline")?,
            retried: 0,
            in_flight: count("in_flight")?,
            queue_depth: count("queue_depth")?,
            queue_depth_max: count("queue_depth_max")?,
        })
    }

    /// Whether a drained service left a sound ledger behind: every
    /// submission terminal and accounted for, nothing queued or in
    /// flight, and the queue never deeper than `queue_capacity`. One
    /// message per broken invariant — the exit check of `reproduce serve`
    /// and the check of the `health` object in a service document.
    pub fn check_drained(&self, queue_capacity: u64) -> Vec<String> {
        let mut violations = Vec::new();
        let line = self.render_line();
        let balanced = self.terminal() == self.submitted && self.accounted();
        ensure!(violations, balanced, "accounting identity violated: {line}");
        let idle = self.queue_depth == 0 && self.in_flight == 0;
        ensure!(violations, idle, "drain left work behind: {line}");
        let peak = self.queue_depth_max;
        ensure!(
            violations,
            peak <= queue_capacity,
            "queue depth peaked at {peak} with capacity {queue_capacity}"
        );
        violations
    }

    /// Jobs that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.rejected + self.completed + self.failed + self.cancelled + self.deadline
    }

    /// The accounting identity: every submission is terminal, queued, or
    /// in flight — nothing is ever lost.
    pub fn accounted(&self) -> bool {
        self.terminal() + self.queue_depth + self.in_flight == self.submitted
    }

    /// One-line text rendering for logs.
    pub fn render_line(&self) -> String {
        format!(
            "submitted {} | completed {} failed {} cancelled {} deadline {} rejected {} \
             | queued {} in-flight {} (peak queue {})",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.deadline,
            self.rejected,
            self.queue_depth,
            self.in_flight,
            self.queue_depth_max,
        )
    }
}

// ---------------------------------------------------------------------------
// The service core
// ---------------------------------------------------------------------------

/// Service sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads (0 = [`crate::exec::default_workers`]).
    pub workers: usize,
    /// Queue bound; submissions beyond it are rejected with
    /// `overloaded`.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_capacity: 256,
        }
    }
}

/// One queued submission, timestamped so the queue wait is measurable
/// whether or not a journal is attached.
#[derive(Debug)]
struct Queued {
    spec: JobSpec,
    enqueued: Instant,
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<Queued>,
    /// New submissions accepted?
    accepting: bool,
    /// Drain requested: workers exit once the queue is empty.
    stop: bool,
    /// Immediate stop: workers exit without touching the queue again.
    stop_now: bool,
}

#[derive(Debug, Default)]
struct HealthCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline: AtomicU64,
    in_flight: AtomicU64,
    queue_depth_max: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    jobs_ready: Condvar,
    counters: HealthCounters,
    /// Tokens of in-flight jobs, for [`Service::cancel`] and
    /// [`Service::shutdown_now`].
    inflight: Mutex<HashMap<String, CancelToken>>,
    config: ServiceConfig,
    /// The attached flight recorder; `None` = record nothing (the
    /// zero-overhead-when-off discipline).
    journal: Option<Arc<Journal>>,
}

impl Shared {
    fn bump(&self, status: JobStatus) {
        let counter = match status {
            JobStatus::Completed => &self.counters.completed,
            JobStatus::Failed => &self.counters.failed,
            JobStatus::Cancelled => &self.counters.cancelled,
            JobStatus::Deadline => &self.counters.deadline,
            JobStatus::Rejected => &self.counters.rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Journal one event, when a journal is attached.
    fn record(&self, job: &str, worker: Option<u32>, kind: EventKind) {
        if let Some(journal) = &self.journal {
            journal.record(job, worker, kind);
        }
    }

    fn health(&self) -> Health {
        let c = &self.counters;
        Health {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline: c.deadline.load(Ordering::Relaxed),
            retried: 0,
            in_flight: c.in_flight.load(Ordering::Relaxed),
            queue_depth: lock(&self.state).queue.len() as u64,
            queue_depth_max: c.queue_depth_max.load(Ordering::Relaxed),
        }
    }
}

/// The running service: worker threads plus the bounded queue. See the
/// module docs for the guarantees. Obtain one with
/// [`Service::start_with_journal`].
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    results: mpsc::Sender<JobResult>,
}

impl Service {
    /// Start the worker pool. Terminal results (including rejections)
    /// arrive on the returned channel in completion order. With a flight
    /// recorder attached, every job transition is journaled.
    pub fn start_with_journal(
        config: ServiceConfig,
        journal: Option<Arc<Journal>>,
    ) -> (Service, mpsc::Receiver<JobResult>) {
        let workers = if config.workers == 0 {
            crate::exec::default_workers()
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                stop: false,
                stop_now: false,
            }),
            jobs_ready: Condvar::new(),
            counters: HealthCounters::default(),
            inflight: Mutex::new(HashMap::new()),
            config,
            journal,
        });
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(&shared, &tx, w as u32))
            })
            .collect();
        (
            Service {
                shared,
                workers: handles,
                results: tx,
            },
            rx,
        )
    }

    /// Submit one job. Never blocks: the job is queued, or shed with a
    /// reason (and a `rejected` result on the channel).
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let reason = {
            let mut state = lock(&self.shared.state);
            if !state.accepting {
                Some((REJECT_REASONS[1], state.queue.len() as u64))
            } else if state.queue.len() >= self.shared.config.queue_capacity {
                Some((REJECT_REASONS[0], state.queue.len() as u64))
            } else {
                state.queue.push_back(Queued {
                    spec: spec.clone(),
                    enqueued: Instant::now(),
                });
                let depth = state.queue.len() as u64;
                self.shared
                    .counters
                    .queue_depth_max
                    .fetch_max(depth, Ordering::Relaxed);
                // Journaled under the state lock so the `Submitted`
                // event is sequenced before any worker can record the
                // matching `Dequeued` (pops take the same lock).
                self.shared
                    .record(&spec.id, None, EventKind::Submitted { queue_depth: depth });
                None
            }
        };
        match reason {
            None => {
                self.shared.jobs_ready.notify_one();
                SubmitOutcome::Accepted
            }
            Some((reason, depth)) => {
                self.shared
                    .record(&spec.id, None, EventKind::Submitted { queue_depth: depth });
                self.shared
                    .record(&spec.id, None, EventKind::Rejected { reason });
                self.shared.record(
                    &spec.id,
                    None,
                    EventKind::Terminal {
                        status: JobStatus::Rejected,
                        total_wall_us: 0,
                    },
                );
                self.shared.bump(JobStatus::Rejected);
                let result = JobResult::unrun(spec, JobStatus::Rejected, reason, None);
                let _ = self.results.send(result);
                SubmitOutcome::Rejected { reason }
            }
        }
    }

    /// Cancel a job by id: a queued job is removed and reported
    /// `cancelled`; an in-flight job has its token fired (its worker
    /// reports once the simulator polls it, which a `fault` attempt never
    /// does).
    /// Returns `false` when the id is neither queued nor in flight.
    pub fn cancel(&self, id: &str) -> bool {
        let removed = {
            let mut state = lock(&self.shared.state);
            match state.queue.iter().position(|j| j.spec.id == id) {
                Some(i) => state.queue.remove(i),
                None => None,
            }
        };
        if let Some(queued) = removed {
            let spec = queued.spec;
            self.shared.record(
                &spec.id,
                None,
                EventKind::CancelRequested {
                    source: CancelSource::Api,
                },
            );
            self.shared.record(
                &spec.id,
                None,
                EventKind::Terminal {
                    status: JobStatus::Cancelled,
                    total_wall_us: 0,
                },
            );
            self.shared.bump(JobStatus::Cancelled);
            let (detail, source) = ("cancelled while queued", CancelSource::Api);
            let result = JobResult::unrun(spec, JobStatus::Cancelled, detail, Some(source));
            let _ = self.results.send(result);
            return true;
        }
        // Journaled under the inflight lock: the worker removes the id
        // (same lock) *before* recording `Terminal`, so the
        // `CancelRequested` event can never be sequenced after it.
        let inflight = lock(&self.shared.inflight);
        if let Some(token) = inflight.get(id) {
            self.shared.record(
                id,
                None,
                EventKind::CancelRequested {
                    source: CancelSource::Api,
                },
            );
            token.cancel();
            return true;
        }
        false
    }

    /// Current counters.
    pub fn health(&self) -> Health {
        self.shared.health()
    }

    /// Stop intake, run the queue dry, join the workers, and return the
    /// final counters. Every accepted job still reaches its terminal
    /// result before this returns.
    pub fn drain(mut self) -> Health {
        {
            let mut state = lock(&self.shared.state);
            state.accepting = false;
            state.stop = true;
        }
        self.shared.jobs_ready.notify_all();
        self.join_workers();
        self.health()
    }

    /// Stop immediately: intake closes, in-flight jobs are cancelled via
    /// their tokens, queued jobs are reported `cancelled` without running.
    /// Joins the workers (bounded by the token poll interval, or by a
    /// `fault` attempt's own budgets) and returns the final counters.
    pub fn shutdown_now(mut self) -> Health {
        let queued: Vec<JobSpec> = {
            let mut state = lock(&self.shared.state);
            state.accepting = false;
            state.stop = true;
            state.stop_now = true;
            state.queue.drain(..).map(|q| q.spec).collect()
        };
        {
            let inflight = lock(&self.shared.inflight);
            for (id, token) in inflight.iter() {
                self.shared.record(
                    id,
                    None,
                    EventKind::CancelRequested {
                        source: CancelSource::Shutdown,
                    },
                );
                token.cancel_from(CancelSource::Shutdown);
            }
        }
        self.shared.jobs_ready.notify_all();
        for spec in queued {
            self.shared.record(
                &spec.id,
                None,
                EventKind::CancelRequested {
                    source: CancelSource::Shutdown,
                },
            );
            self.shared.record(
                &spec.id,
                None,
                EventKind::Terminal {
                    status: JobStatus::Cancelled,
                    total_wall_us: 0,
                },
            );
            self.shared.bump(JobStatus::Cancelled);
            let (detail, source) = (
                "cancelled by shutdown before running",
                CancelSource::Shutdown,
            );
            let result = JobResult::unrun(spec, JobStatus::Cancelled, detail, Some(source));
            let _ = self.results.send(result);
        }
        self.join_workers();
        self.health()
    }

    fn join_workers(&mut self) {
        for handle in self.workers.drain(..) {
            // Workers run jobs under the isolation boundary, so a join
            // error means a harness bug; the counters already reflect
            // every job that produced a result.
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    /// Dropping without [`Service::drain`]/[`Service::shutdown_now`]
    /// releases the workers (they exit at their next queue poll or token
    /// check) instead of leaking them on a parked condvar.
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.accepting = false;
            state.stop = true;
            state.stop_now = true;
        }
        for token in lock(&self.shared.inflight).values() {
            token.cancel_from(CancelSource::Shutdown);
        }
        self.shared.jobs_ready.notify_all();
        self.join_workers();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Workers never panic while holding these locks (jobs run under the
    // isolation boundary outside any lock), so poisoning is recoverable.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

fn worker_loop(shared: &Shared, results: &mpsc::Sender<JobResult>, worker: u32) {
    loop {
        let (queued, queue_wait_us) = {
            let mut state = lock(&shared.state);
            loop {
                if state.stop_now {
                    return;
                }
                if let Some(queued) = state.queue.pop_front() {
                    let queue_wait_us = micros(queued.enqueued.elapsed());
                    // Journaled under the state lock, as `Submitted` is, so
                    // the depths the events record are in `seq` order.
                    let queue_depth = state.queue.len() as u64;
                    let kind = EventKind::Dequeued {
                        queue_wait_us,
                        queue_depth,
                    };
                    shared.record(&queued.spec.id, Some(worker), kind);
                    break (queued, queue_wait_us);
                }
                if state.stop {
                    return;
                }
                state = shared
                    .jobs_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.counters.in_flight.fetch_add(1, Ordering::Relaxed);
        let result = run_job(shared, queued.spec, worker, queue_wait_us);
        shared.bump(result.status);
        let _ = results.send(result);
        shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// What an attempt produced, distinguished from failures (which travel
/// as `Err(String)` through [`run_isolated`]).
enum Attempt {
    Done {
        detail: String,
        cycles: Option<u64>,
        report: Option<Json>,
    },
    Cancelled {
        at_cycle: u64,
    },
    Deadline {
        at_cycle: u64,
    },
}

fn run_job(shared: &Shared, spec: JobSpec, worker: u32, queue_wait_us: u64) -> JobResult {
    let token = match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    if let Some(cycle) = spec.cancel_at_cycle {
        token.cancel_at_cycle(cycle);
    }
    lock(&shared.inflight).insert(spec.id.clone(), token.clone());
    let t0 = Instant::now();
    let deadline_ms = spec.deadline_ms.unwrap_or(0);
    let mut attempts: u32 = 0;
    let mut attempt_wall = Duration::ZERO;
    // Honour a token that fired before the attempt could start: a cancel
    // that arrived right after pickup, or a zero deadline.
    // `fire_state(0)` never trips an armed `cancel_at_cycle > 0`.
    let (status, detail, cycles, report) = match token.fire_state(0) {
        Some(CancelCause::Cancelled) if spec.cancel_at_cycle != Some(0) => (
            JobStatus::Cancelled,
            "cancelled before its attempt".to_owned(),
            None,
            None,
        ),
        Some(CancelCause::DeadlineExceeded) => (
            JobStatus::Deadline,
            format!("deadline of {deadline_ms} ms exhausted before its attempt"),
            None,
            None,
        ),
        _ => {
            attempts = 1;
            shared.record(&spec.id, Some(worker), EventKind::AttemptStarted);
            let attempt_t0 = Instant::now();
            let outcome = run_isolated(|| run_attempt(&spec, &token));
            attempt_wall = attempt_t0.elapsed();
            match outcome {
                Ok(Attempt::Done {
                    detail,
                    cycles,
                    report,
                }) => (JobStatus::Completed, detail, cycles, report),
                Ok(Attempt::Cancelled { at_cycle }) => (
                    JobStatus::Cancelled,
                    format!("cancelled at cycle {at_cycle}"),
                    None,
                    None,
                ),
                Ok(Attempt::Deadline { at_cycle }) => (
                    JobStatus::Deadline,
                    format!("deadline of {deadline_ms} ms exceeded at cycle {at_cycle}"),
                    None,
                    None,
                ),
                Err(message) => (JobStatus::Failed, message, None, None),
            }
        }
    };
    // Token-driven aborts name their trigger path. Cycle and deadline
    // fire *inside* the run, so this worker journals the request; api
    // and shutdown requests were journaled by the requesting thread.
    let cancel_source = match status {
        JobStatus::Cancelled | JobStatus::Deadline => token.fired_source(),
        _ => None,
    };
    if let Some(source @ (CancelSource::Cycle | CancelSource::Deadline)) = cancel_source {
        shared.record(
            &spec.id,
            Some(worker),
            EventKind::CancelRequested { source },
        );
    }
    // Remove from inflight *before* journaling `Terminal`:
    // `Service::cancel` records its `CancelRequested` while holding the
    // inflight lock, so either it sees the id and sequences before this
    // terminal, or it misses the id and records nothing.
    lock(&shared.inflight).remove(&spec.id);
    let wall = t0.elapsed();
    shared.record(
        &spec.id,
        Some(worker),
        EventKind::Terminal {
            status,
            total_wall_us: micros(wall),
        },
    );
    JobResult {
        id: spec.id,
        kind: spec.kind.name(),
        status,
        attempts,
        wall_ms: wall.as_secs_f64() * 1e3,
        detail,
        cycles,
        report,
        queue_wait_us: Some(queue_wait_us),
        attempts_wall_us: Some(micros(attempt_wall)),
        cancel_source,
    }
}

/// Map a simulator error to its attempt outcome: token-driven aborts are
/// their own terminal states, everything else is a failure.
fn classify_sim_error(e: SimError) -> Result<Attempt, String> {
    match e {
        SimError::Cancelled { at_cycle, .. } => Ok(Attempt::Cancelled { at_cycle }),
        SimError::DeadlineExceeded { at_cycle, .. } => Ok(Attempt::Deadline { at_cycle }),
        other => Err(other.to_string()),
    }
}

fn run_attempt(spec: &JobSpec, token: &CancelToken) -> Result<Attempt, String> {
    match &spec.kind {
        JobKind::Profile { target } => match profiling::run_target(target, false, Some(token)) {
            Ok(out) => Ok(Attempt::Done {
                detail: format!("profiled {target} on {}", out.gpu),
                cycles: None,
                report: Some(out.json),
            }),
            Err(e) => classify_sim_error(e),
        },
        JobKind::Fault { case } => {
            let report = crate::fault::run_case(case)?;
            let detail = match &report.violation {
                Some(v) => format!("mutant violation [{}]: {}", v.kind.name(), v.detail),
                None => format!(
                    "mutant ok: func={} timing={}",
                    report.func.class().name(),
                    report.timing.class().name()
                ),
            };
            let cycles = match report.timing {
                Outcome::Ok { cycles } => Some(cycles),
                _ => None,
            };
            Ok(Attempt::Done {
                detail,
                cycles,
                report: None,
            })
        }
        JobKind::Spin => {
            let mut b = KernelBuilder::new("service_spin", Generation::Fermi);
            let top = b.label_here();
            b.bra(top);
            b.exit();
            let kernel = b.finish().map_err(|e| e.to_string())?;
            let gpu = GpuConfig::gtx580();
            let mut memory = GlobalMemory::new();
            let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[])
                .map_err(|e| e.to_string())?;
            let mut hooks = Hooks::default().cancel(Some(token));
            if spec.deadline_ms.is_none() && spec.cancel_at_cycle.is_none() {
                // Untriggered spins should fail fast on the watchdog, not
                // burn the default multi-million-cycle budget.
                hooks = hooks.cycle_limit(200_000);
            }
            match sim.run(&mut memory, hooks) {
                Ok(report) => Ok(Attempt::Done {
                    detail: "spin kernel finished (unexpected)".to_owned(),
                    cycles: Some(report.cycles),
                    report: None,
                }),
                Err(e) => classify_sim_error(e),
            }
        }
        JobKind::Panic => panic!("forced panic job (isolation check)"),
    }
}

// ---------------------------------------------------------------------------
// Chaos soak
// ---------------------------------------------------------------------------

/// Generate a deterministic chaos-soak job mix: fault mutants (hostile
/// kernels), panicking jobs (isolation), spins with short deadlines or
/// cycle triggers (cancellation), and a sprinkle of real profile jobs —
/// everything the resilience claims must survive.
pub fn soak_jobs(count: u64, seed: u64) -> Vec<JobSpec> {
    let mut rng = peakperf_kernels::rng::Rng::seed_from_u64(seed ^ 0x5EED_50AC);
    let seeds = SeedSpec::all();
    (0..count)
        .map(|i| {
            let id = format!("soak-{i:04}");
            let roll = rng.gen_below(100);
            match roll {
                // Hostile mutants are the bulk of the traffic.
                0..=69 => {
                    let generation = if rng.gen_bool() {
                        Generation::Fermi
                    } else {
                        Generation::Kepler
                    };
                    let seed_spec = seeds[rng.gen_range_usize(0, seeds.len())];
                    JobSpec::new(
                        id,
                        JobKind::Fault {
                            case: FuzzCase {
                                generation,
                                seed: seed_spec,
                                mutation_seed: rng.next_u64(),
                            },
                        },
                    )
                }
                70..=79 => JobSpec::new(id, JobKind::Panic),
                // Deadline-doomed spins: must come back as `deadline`.
                80..=89 => JobSpec {
                    deadline_ms: Some(rng.gen_below(41) + 20),
                    ..JobSpec::new(id, JobKind::Spin)
                },
                // Cycle-triggered spins: must come back as `cancelled`.
                90..=94 => JobSpec {
                    cancel_at_cycle: Some(rng.gen_below(100_000) + 1),
                    deadline_ms: Some(30_000),
                    ..JobSpec::new(id, JobKind::Spin)
                },
                // Well-behaved profile work sharing the pool.
                _ => JobSpec {
                    deadline_ms: Some(60_000),
                    ..JobSpec::new(
                        id,
                        JobKind::Profile {
                            target: if rng.gen_bool() {
                                "fermi_ffma".to_owned()
                            } else {
                                "table2_ffma".to_owned()
                            },
                        },
                    )
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Documents and rendering
// ---------------------------------------------------------------------------

/// The `peakperf-service-v1` document, the one record of a `reproduce
/// serve` run: the run configuration, the health counters, every job's
/// result, and the journal — whether it holds every event it recorded,
/// its ring capacity and drop count, the counts its events re-derive (so
/// the accounting identity is checkable from the document alone), and
/// every retained event.
pub fn service_document(
    workers: usize,
    queue_capacity: usize,
    health: &Health,
    results: &[JobResult],
    wall_ms: f64,
    journal: &Journal,
) -> Json {
    let results = results.iter().map(JobResult::to_json);
    let events = journal.events();
    let body = obj!((); workers = workers, queue_capacity = queue_capacity,
        wall_ms = wall_ms, health = health.to_json(),
        results = results.collect::<Json>(),
        complete = journal.is_complete(), capacity = journal.capacity(),
        dropped = journal.dropped(), derived = derive_counts(&events).ledger_json(),
        events = events.iter().map(Event::to_json).collect::<Json>());
    envelope("peakperf-service-v1", &PAPER_GPUS, body)
}

/// Check a `peakperf-service-v1` document: shaped like the sample
/// [`service_document`] writes; every result valid (`check_result`)
/// with a unique id; the results tallying the health counters status by
/// status; the health counters those of a soundly drained service
/// ([`Health::check_drained`]: the accounting identity, nothing left
/// queued or in flight, the queue bound held); every event readable
/// ([`Event::from_json`]) and the journal invariants holding on them
/// ([`check_events`], against `health`); the `derived` object equal to
/// the counts the events re-derive; and every queue depth an event
/// records within `queue_capacity`. Stops reading events after 20
/// violations.
pub fn check(doc: &Json, errors: &mut Vec<String>) {
    let sample = service_document(0, 0, &Health::default(), &[], 0.0, &Journal::full(None));
    doc.conforms(&sample, &"service document", errors);
    let mut tally = [0u64; JobStatus::ALL.len()];
    let mut ids = std::collections::HashSet::new();
    for (i, result) in doc.items("results").iter().enumerate() {
        let id = result.text("id");
        let unique = ids.insert(id);
        ensure!(
            errors,
            unique,
            "service document: duplicate result id `{id}`"
        );
        let status = check_result(result, &format!("results[{i}] ({id})"), errors);
        if let Some(slot) = JobStatus::ALL.iter().position(|s| Some(*s) == status) {
            tally[slot] += 1;
        }
    }
    let queue_capacity = doc["queue_capacity"].as_u64().unwrap_or(u64::MAX);
    let counters = &doc["health"];
    let health = Health::from_json(counters)
        .map_err(|e| errors.push(format!("service health: {e}")))
        .ok();
    if let Some(health) = &health {
        // Each terminal status names its health counter.
        for (status, results) in JobStatus::ALL.map(JobStatus::as_str).into_iter().zip(tally) {
            let counted = counters.count(status);
            ensure!(
                errors,
                results == counted,
                "service document: {results} {status} result(s) but health counts {counted}"
            );
        }
        let drained = health.check_drained(queue_capacity);
        errors.extend(drained.iter().map(|v| format!("service document: {v}")));
    }

    let mut events = Vec::new();
    for (i, event) in doc.items("events").iter().enumerate() {
        match Event::from_json(event) {
            Ok(event) => {
                let depth = event.kind.queue_depth().unwrap_or(0);
                ensure!(
                    errors,
                    depth <= queue_capacity,
                    "events[{i}]: queue_depth {depth} exceeds queue_capacity {queue_capacity} \
                     (backpressure bound violated)"
                );
                events.push(event);
            }
            Err(e) => errors.push(format!("events[{i}]: {e}")),
        }
        if errors.len() > 20 {
            return errors.push("... (stopping after 20 violations)".to_owned());
        }
    }
    let complete = doc.count("dropped") == 0;
    errors.extend(check_events(&events, complete, health.as_ref()));
    let rederived = derive_counts(&events).ledger_json();
    let agrees = !complete || doc.get("derived") == Some(&rederived);
    ensure!(
        errors,
        agrees,
        "`derived` is {} but the events re-derive {rederived}",
        doc["derived"]
    );
}

/// Text summary table for one serve run.
pub fn render_summary(health: &Health, results: &[JobResult], wall_ms: f64) -> String {
    let mut by_status: Vec<(&'static str, u64)> = Vec::new();
    for r in results {
        match by_status.iter_mut().find(|(s, _)| *s == r.status.as_str()) {
            Some((_, n)) => *n += 1,
            None => by_status.push((r.status.as_str(), 1)),
        }
    }
    let mut table = Table::new(
        "service jobs",
        &["id", "kind", "status", "attempts", "wall ms", "detail"],
    );
    for r in results {
        let mut detail = r.detail.lines().next().unwrap_or("").to_owned();
        if detail.len() > 60 {
            let cut = detail
                .char_indices()
                .take_while(|(i, _)| *i < 57)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8());
            detail.truncate(cut);
            detail.push_str("...");
        }
        table.row(vec![
            r.id.clone(),
            r.kind.to_owned(),
            r.status.as_str().to_owned(),
            r.attempts.to_string(),
            format!("{:.1}", r.wall_ms),
            detail,
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(out, "\n{}", health.render_line());
    let _ = writeln!(
        out,
        "{} job(s) in {:.1} ms; accounting identity {}",
        results.len(),
        wall_ms,
        if health.terminal() == health.submitted && health.accounted() {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_results(rx: &mpsc::Receiver<JobResult>) -> Vec<JobResult> {
        rx.try_iter().collect()
    }

    fn small_service(workers: usize, cap: usize) -> (Service, mpsc::Receiver<JobResult>) {
        let config = ServiceConfig {
            workers,
            queue_capacity: cap,
        };
        Service::start_with_journal(config, None)
    }

    /// A fault job that completes: one deterministic mutant.
    fn mutant(id: &str) -> JobSpec {
        let case = FuzzCase {
            generation: Generation::Kepler,
            seed: SeedSpec::parse("table2:07").unwrap(),
            mutation_seed: 3,
        };
        JobSpec::new(id, JobKind::Fault { case })
    }

    /// The events of one job, in sequence order: its span chain.
    fn chain_of(journal: &Journal, job: &str) -> Vec<Event> {
        journal
            .events()
            .into_iter()
            .filter(|e| e.job == job)
            .collect()
    }

    #[test]
    fn panic_job_is_isolated_and_reports_a_backtrace() {
        let (service, rx) = small_service(2, 8);
        service.submit(JobSpec::new("boom", JobKind::Panic));
        service.submit(mutant("ok"));
        let health = service.drain();
        let results = drain_results(&rx);
        assert_eq!(results.len(), 2);
        let boom = results.iter().find(|r| r.id == "boom").unwrap();
        assert_eq!(boom.status, JobStatus::Failed);
        assert!(boom.detail.contains("forced panic job"), "{}", boom.detail);
        assert!(boom.detail.contains("backtrace:"), "{}", boom.detail);
        let ok = results.iter().find(|r| r.id == "ok").unwrap();
        assert_eq!(ok.status, JobStatus::Completed);
        assert_eq!(health.completed, 1);
        assert_eq!(health.failed, 1);
    }

    #[test]
    fn deadline_doomed_spin_reports_deadline() {
        let (service, rx) = small_service(1, 8);
        for (id, ms) in [("spin", 20), ("zero", 0)] {
            service.submit(JobSpec {
                deadline_ms: Some(ms),
                ..JobSpec::new(id, JobKind::Spin)
            });
        }
        let health = service.drain();
        let results = drain_results(&rx);
        let spin = results.iter().find(|r| r.id == "spin").unwrap();
        assert_eq!(spin.status, JobStatus::Deadline);
        assert!(spin.detail.contains("20 ms"), "{}", spin.detail);
        assert_eq!(spin.attempts, 1);
        assert_eq!(health.deadline, 2);
        assert!(health.accounted());
        // A zero deadline fires between pickup and the attempt: a valid
        // result with no attempt, unlike one claiming two.
        let zero = results.iter().find(|r| r.id == "zero").unwrap();
        assert_eq!(zero.status, JobStatus::Deadline);
        assert_eq!(zero.attempts, 0);
        let mut errors = Vec::new();
        let mut line = zero.to_json();
        check_result(&line, "zero", &mut errors);
        *line.get_mut("attempts").unwrap() = 2.into();
        check_result(&line, "zero", &mut errors);
        assert_eq!(errors, ["zero: deadline job reports 2 attempt(s)"]);
    }

    #[test]
    fn cycle_triggered_spin_reports_cancelled() {
        let (service, rx) = small_service(1, 8);
        service.submit(JobSpec {
            cancel_at_cycle: Some(4096),
            ..JobSpec::new("spin", JobKind::Spin)
        });
        service.drain();
        let results = drain_results(&rx);
        assert_eq!(results[0].status, JobStatus::Cancelled);
        assert!(
            results[0].detail.contains("cancelled at cycle"),
            "{}",
            results[0].detail
        );
    }

    #[test]
    fn overload_sheds_explicitly_and_accounts_for_everything() {
        // One worker, tiny queue: flood it and require
        // accepted + rejected == submitted with every job terminal.
        let (service, rx) = small_service(1, 2);
        let total = 24;
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..total {
            let outcome = service.submit(JobSpec {
                deadline_ms: Some(15),
                ..JobSpec::new(format!("j{i}"), JobKind::Spin)
            });
            match outcome {
                SubmitOutcome::Accepted => accepted += 1,
                SubmitOutcome::Rejected { reason } => {
                    assert_eq!(reason, "overloaded");
                    rejected += 1;
                }
            }
        }
        let health = service.drain();
        let results = drain_results(&rx);
        assert_eq!(accepted + rejected, total);
        assert_eq!(results.len() as u64, total, "one result per submission");
        assert_eq!(health.submitted, total);
        assert_eq!(health.terminal(), total);
        assert!(health.queue_depth_max <= 2, "queue bound violated");
        assert_eq!(health.rejected, rejected);
        assert!(rejected > 0, "flooding a 2-slot queue must shed load");
    }

    #[test]
    fn submit_after_drain_starts_is_rejected_shutting_down() {
        let (service, rx) = small_service(1, 8);
        // Close intake via shutdown_now, then probe with a fresh submit
        // on the still-live handle path: emulate by toggling state first.
        {
            let mut state = lock(&service.shared.state);
            state.accepting = false;
        }
        let outcome = service.submit(JobSpec::new("late", JobKind::Panic));
        assert_eq!(
            outcome,
            SubmitOutcome::Rejected {
                reason: "shutting-down"
            }
        );
        let health = service.drain();
        assert_eq!(health.rejected, 1);
        assert_eq!(drain_results(&rx)[0].status, JobStatus::Rejected);
    }

    #[test]
    fn cancel_removes_queued_jobs_and_fires_inflight_tokens() {
        let (service, rx) = small_service(1, 8);
        // First job occupies the single worker long enough to cancel it;
        // the second sits in the queue.
        service.submit(JobSpec {
            deadline_ms: Some(10_000),
            ..JobSpec::new("running", JobKind::Spin)
        });
        service.submit(JobSpec::new("queued", JobKind::Panic));
        // Wait until the first job is actually in flight.
        let t0 = Instant::now();
        while !lock(&service.shared.inflight).contains_key("running") {
            assert!(t0.elapsed() < Duration::from_secs(10), "job never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.cancel("queued"), "queued job should be cancellable");
        assert!(
            service.cancel("running"),
            "in-flight job should be cancellable"
        );
        assert!(!service.cancel("nonesuch"));
        let health = service.drain();
        let results = drain_results(&rx);
        assert_eq!(health.cancelled, 2);
        let queued = results.iter().find(|r| r.id == "queued").unwrap();
        assert_eq!(queued.status, JobStatus::Cancelled);
        assert_eq!(queued.attempts, 0);
        let running = results.iter().find(|r| r.id == "running").unwrap();
        assert_eq!(running.status, JobStatus::Cancelled);
        assert_eq!(running.attempts, 1);
        // Only a job some worker dequeued may report attempts.
        let mut errors = Vec::new();
        let mut line = queued.to_json();
        check_result(&running.to_json(), "running", &mut errors);
        check_result(&line, "queued", &mut errors);
        *line.get_mut("attempts").unwrap() = 1.into();
        check_result(&line, "queued", &mut errors);
        assert_eq!(errors, ["queued: cancelled job reports 1 attempt(s)"]);
    }

    #[test]
    fn shutdown_now_cancels_queued_and_inflight_work() {
        let (service, rx) = small_service(1, 16);
        for i in 0..4 {
            service.submit(JobSpec {
                deadline_ms: Some(10_000),
                ..JobSpec::new(format!("s{i}"), JobKind::Spin)
            });
        }
        // Let the worker pick one up.
        let t0 = Instant::now();
        while lock(&service.shared.inflight).is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "no job started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let health = service.shutdown_now();
        let results = drain_results(&rx);
        assert_eq!(results.len(), 4);
        assert_eq!(health.terminal(), 4);
        assert!(results.iter().all(|r| r.status == JobStatus::Cancelled));
        assert!(health.accounted());
    }

    #[test]
    fn fault_mutant_jobs_complete_with_outcome_detail() {
        let (service, rx) = small_service(2, 8);
        service.submit(mutant("mutant"));
        service.drain();
        let results = drain_results(&rx);
        assert_eq!(results[0].status, JobStatus::Completed);
        assert!(
            results[0].detail.starts_with("mutant"),
            "{}",
            results[0].detail
        );
    }

    #[test]
    fn job_line_round_trips() {
        let specs = vec![
            JobSpec {
                deadline_ms: Some(2500),
                ..JobSpec::new(
                    "p1",
                    JobKind::Profile {
                        target: "fermi_ffma".to_owned(),
                    },
                )
            },
            JobSpec::new(
                "f1",
                JobKind::Fault {
                    case: FuzzCase {
                        generation: Generation::Fermi,
                        seed: SeedSpec::parse("sgemm:nn").unwrap(),
                        // Campaign seeds are full-width `next_u64()` draws:
                        // this one is not representable as an f64.
                        mutation_seed: 18_446_744_073_709_551_557,
                    },
                },
            ),
            JobSpec {
                cancel_at_cycle: Some(1024),
                ..JobSpec::new("s1", JobKind::Spin)
            },
            JobSpec::new("x1", JobKind::Panic),
        ];
        for spec in &specs {
            let line = spec.to_json().render();
            let back = parse_job_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, spec, "{line}");
        }
        let text = specs
            .iter()
            .map(|spec| spec.to_json().render())
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(parse_jobs_jsonl(&text).unwrap(), specs);
    }

    #[test]
    fn bad_job_lines_are_rejected_with_line_numbers() {
        for (bad, want) in [
            ("{}", "schema"),
            ("{\"schema\":\"peakperf-job-v1\"}", "id"),
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"nope\"}",
                "unknown job kind",
            ),
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"profile\"}",
                "target",
            ),
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"fault\",\"gpu\":\"kepler\",\"seed\":\"zzz\"}",
                "seed spec",
            ),
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"spin\",\"deadline_ms\":-3}",
                "deadline_ms",
            ),
            // A member no kind has, and one of another kind, would
            // otherwise run the job as if they were absent.
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"spin\",\"max_retries\":2}",
                "unknown member `max_retries` in a spin job",
            ),
            (
                "{\"schema\":\"peakperf-job-v1\",\"id\":\"a\",\"kind\":\"panic\",\"target\":\"fermi_ffma\"}",
                "unknown member `target` in a panic job",
            ),
        ] {
            let err = parse_job_line(bad).unwrap_err();
            assert!(err.contains(want), "`{bad}` -> `{err}`");
        }
        let err = parse_jobs_jsonl("\n{}\n").unwrap_err();
        assert!(err.starts_with("jobs line 2:"), "{err}");
    }

    #[test]
    fn service_document_round_trips_and_passes_its_check() {
        let journal = Arc::new(Journal::full(None));
        let config = ServiceConfig {
            workers: 2,
            queue_capacity: 8,
        };
        let (service, rx) = Service::start_with_journal(config, Some(Arc::clone(&journal)));
        service.submit(mutant("a"));
        service.submit(JobSpec::new("b", JobKind::Panic));
        let health = service.drain();
        let results = drain_results(&rx);
        let doc = service_document(2, 8, &health, &results, 12.5, &journal);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        assert_eq!(Health::from_json(doc.get("health").unwrap()), Ok(health));
        assert_eq!(doc.items("results").len(), 2);
        assert_eq!(doc.items("events").len(), journal.len());
        assert_eq!(doc.get("capacity"), Some(&Json::Null));
        assert_eq!(
            doc.get("derived").unwrap().render(),
            "{\"submitted\":2,\"completed\":1,\"failed\":1,\"cancelled\":0,\
             \"deadline\":0,\"rejected\":0}"
        );
        let summary = render_summary(&health, &results, 12.5);
        assert!(summary.contains("identity holds"), "{summary}");

        // One check covers the results and the journal: a result that
        // disagrees with `health` on its status, and a `derived` object
        // the events do not re-derive, are both violations.
        let completed = results.iter().position(|r| r.id == "a").unwrap();
        let mut misfiled = doc.clone();
        if let Some(Json::Arr(items)) = misfiled.get_mut("results") {
            *items[completed].get_mut("status").unwrap() = "failed".into();
        }
        let mut misderived = doc.clone();
        let derived = misderived.get_mut("derived").unwrap();
        *derived.get_mut("completed").unwrap() = 2.into();
        for (broken, want) in [
            (misfiled, "2 failed result(s) but health counts 1"),
            (misderived, "`derived` is"),
        ] {
            let errors = crate::report::check_document(&broken);
            assert!(errors.iter().any(|e| e.contains(want)), "{errors:?}");
        }

        // A flight-recorder ring that dropped events says so, and its
        // document still passes: only the span-chain checks need every
        // event.
        let ring = Journal::flight_recorder(3);
        for e in journal.events() {
            ring.record(&e.job, e.worker, e.kind);
        }
        let doc = service_document(2, 8, &health, &results, 12.5, &ring);
        assert_eq!(doc.get("complete"), Some(&Json::Bool(false)));
        assert_eq!(doc.items("events").len(), 3);
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
    }

    #[test]
    fn journal_records_gap_free_chains_matching_health() {
        let journal = Arc::new(Journal::full(None));
        let (service, rx) = Service::start_with_journal(
            ServiceConfig {
                workers: 2,
                queue_capacity: 8,
            },
            Some(Arc::clone(&journal)),
        );
        service.submit(JobSpec::new("boom", JobKind::Panic));
        service.submit(JobSpec {
            cancel_at_cycle: Some(2048),
            deadline_ms: Some(30_000),
            ..JobSpec::new("spin", JobKind::Spin)
        });
        let health = service.drain();
        let results = drain_results(&rx);
        assert_eq!(results.len(), 2);
        assert_eq!(
            journal.check_invariants(Some(&health)),
            Vec::<String>::new()
        );
        assert!(journal.derived().accounted());

        // A failed job ran once: no retry follows its attempt.
        let boom: Vec<&'static str> = chain_of(&journal, "boom")
            .iter()
            .map(|e| e.kind.type_name())
            .collect();
        assert_eq!(
            boom,
            ["submitted", "dequeued", "attempt_started", "terminal"]
        );

        // The cycle-cancelled spin names its trigger path, both in the
        // journal and on the result line.
        let spin = chain_of(&journal, "spin");
        assert!(spin.iter().any(|e| matches!(
            e.kind,
            EventKind::CancelRequested {
                source: CancelSource::Cycle
            }
        )));
        let spin_result = results.iter().find(|r| r.id == "spin").unwrap();
        assert_eq!(spin_result.cancel_source, Some(CancelSource::Cycle));
        assert_eq!(
            spin_result.to_json().get("cancel_source").unwrap().as_str(),
            Some("cycle")
        );

        // Every executed job carries its latency fields.
        assert!(results
            .iter()
            .all(|r| r.queue_wait_us.is_some() && r.attempts_wall_us.is_some()));
    }

    #[test]
    fn rejected_jobs_have_no_latency_fields_and_close_their_chains() {
        let journal = Arc::new(Journal::full(None));
        let (service, rx) = Service::start_with_journal(
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
            },
            Some(Arc::clone(&journal)),
        );
        // Hold the single worker, fill the 1-slot queue, then overflow.
        service.submit(JobSpec {
            deadline_ms: Some(10_000),
            ..JobSpec::new("hold", JobKind::Spin)
        });
        let t0 = Instant::now();
        while !lock(&service.shared.inflight).contains_key("hold") {
            assert!(t0.elapsed() < Duration::from_secs(10), "job never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        service.submit(JobSpec::new("fill", JobKind::Panic));
        let outcome = service.submit(JobSpec::new("shed", JobKind::Panic));
        assert_eq!(
            outcome,
            SubmitOutcome::Rejected {
                reason: "overloaded"
            }
        );
        assert!(service.cancel("hold"));
        let health = service.drain();
        let results = drain_results(&rx);
        assert_eq!(
            journal.check_invariants(Some(&health)),
            Vec::<String>::new()
        );
        let shed = results.iter().find(|r| r.id == "shed").unwrap();
        assert_eq!(shed.queue_wait_us, None);
        assert_eq!(shed.attempts_wall_us, None);
        assert_eq!(shed.to_json().get("queue_wait_us"), None);
        let chain: Vec<&'static str> = chain_of(&journal, "shed")
            .iter()
            .map(|e| e.kind.type_name())
            .collect();
        assert_eq!(chain, ["submitted", "rejected", "terminal"]);
        let hold = results.iter().find(|r| r.id == "hold").unwrap();
        assert_eq!(hold.status, JobStatus::Cancelled);
        assert_eq!(hold.cancel_source, Some(CancelSource::Api));
    }

    #[test]
    fn shutdown_tags_cancellations_with_the_shutdown_source() {
        let journal = Arc::new(Journal::full(None));
        let (service, rx) = Service::start_with_journal(
            ServiceConfig {
                workers: 1,
                queue_capacity: 16,
            },
            Some(Arc::clone(&journal)),
        );
        for i in 0..3 {
            service.submit(JobSpec {
                deadline_ms: Some(10_000),
                ..JobSpec::new(format!("s{i}"), JobKind::Spin)
            });
        }
        let t0 = Instant::now();
        while lock(&service.shared.inflight).is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "no job started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let health = service.shutdown_now();
        let results = drain_results(&rx);
        assert_eq!(
            journal.check_invariants(Some(&health)),
            Vec::<String>::new()
        );
        assert!(results
            .iter()
            .all(|r| r.cancel_source == Some(CancelSource::Shutdown)));
    }

    #[test]
    fn soak_mix_is_deterministic_and_covers_every_kind() {
        let a = soak_jobs(200, 42);
        let b = soak_jobs(200, 42);
        assert_eq!(a, b, "same seed must generate the same jobs");
        assert_ne!(a, soak_jobs(200, 43), "different seed, different mix");
        for kind in JobKind::NAMES {
            assert!(
                a.iter().any(|j| j.kind.name() == kind),
                "200-job soak should include a {kind} job"
            );
        }
        // The deterministic cancellation and deadline paths must both be
        // represented, or the soak proves less than it claims.
        assert!(a
            .iter()
            .any(|j| j.kind == JobKind::Spin && j.cancel_at_cycle.is_some()));
        assert!(a.iter().any(|j| j.kind == JobKind::Spin
            && j.deadline_ms.is_some_and(|ms| ms < 100)
            && j.cancel_at_cycle.is_none()));
    }
}
