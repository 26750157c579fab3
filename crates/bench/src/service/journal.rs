//! The service flight recorder: a structured journal of job-lifecycle
//! events.
//!
//! The [`Health`] counters say *that* a soak job shed, retried or died on
//! a deadline; this module records *when* and *why*. Every transition a
//! job makes through [`super::Service`] — submitted, rejected, dequeued,
//! attempt started/failed, cancel requested, terminal — lands in the
//! journal as one typed [`Event`] with a monotonic timestamp (µs since
//! the journal's epoch), a global sequence number, the causal job id, and
//! the worker that performed it; periodic [`EventKind::HealthSnapshot`]
//! events turn the counters into a time-series.
//!
//! Design constraints, in the order they were chosen:
//!
//! * **zero overhead when absent** — the service holds an
//!   `Option<Arc<Journal>>`; `None` means no event is even constructed.
//!   Job results are identical with and without a journal attached
//!   (locked by test), the same discipline as the timing simulator's
//!   `Observer`.
//! * **lock-cheap** — events are recorded at *job* granularity (a job
//!   runs for milliseconds to seconds), so one short `Mutex` push per
//!   transition is far below measurement noise; the snapshot high-water
//!   mark is a relaxed atomic.
//! * **bounded** — a journal has a capacity; past it the *oldest* events
//!   are dropped (and counted), so the tail — the part that explains a
//!   failure — is always retained. [`Journal::flight_recorder`] is the
//!   fixed-capacity ring `reproduce serve` arms when it writes neither the
//!   service document nor a trace: when a resilience invariant breaks, the
//!   run's `peakperf-service-v1` document is dumped with the ring's events,
//!   so the failure arrives with its history attached.
//! * **self-verifying** — the journal alone re-derives the accounting
//!   identity (`completed + failed + cancelled + deadline + rejected ==
//!   submitted`) via [`Journal::derived`], and [`Journal::check_invariants`]
//!   proves every job's span chain is gap-free from `Submitted` to
//!   `Terminal`. The service document carries the events, and its check
//!   ([`super::check`]) reads them back ([`Event::from_json`]) and runs the
//!   same functions on them, which is what `reproduce check` does in CI.
//!
//! [`Journal::chrome_trace`] renders the journal with the shared
//! [`ChromeTraceWriter`]: one track per worker, queue-wait and attempt
//! spans as complete events, and queue depth as a counter track, so a
//! whole serve/soak run opens in Perfetto.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use peakperf_sim::json::{ChromeTraceWriter, Json};
use peakperf_sim::{ensure, obj, CancelSource};

use super::{Health, JobStatus, REJECT_REASONS};

/// Default capacity of the always-on flight-recorder ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Why an attempt failed, as far as the journal can classify it from the
/// attempt's error message (attempts fail through the panic-isolation
/// boundary, so only the rendered message crosses it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The attempt panicked (isolated; message carries a backtrace).
    Panic,
    /// A planned flaky-job failure (the retry-policy test kind).
    Flaky,
    /// Any other structured error (simulator errors, bad kernels, ...).
    Error,
}

impl ErrorClass {
    /// Every class, in declaration order.
    pub const ALL: [ErrorClass; 3] = [ErrorClass::Panic, ErrorClass::Flaky, ErrorClass::Error];

    /// Stable tag used in journal events.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorClass::Panic => "panic",
            ErrorClass::Flaky => "flaky",
            ErrorClass::Error => "error",
        }
    }

    /// Classify one attempt's error message.
    pub fn classify(message: &str) -> ErrorClass {
        if message.contains("backtrace:") {
            ErrorClass::Panic
        } else if message.starts_with("flaky job failed") {
            ErrorClass::Flaky
        } else {
            ErrorClass::Error
        }
    }
}

/// One job-lifecycle transition (or a periodic health sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The job entered the queue; `queue_depth` is the depth *after* the
    /// push (also the source of the Chrome queue-depth counter track).
    Submitted {
        /// Queue depth right after this submission.
        queue_depth: u64,
    },
    /// The job was shed at submission.
    Rejected {
        /// `overloaded` or `shutting-down`.
        reason: &'static str,
    },
    /// A worker picked the job up after `queue_wait_us` in the queue.
    Dequeued {
        /// Microseconds between submission and pickup.
        queue_wait_us: u64,
    },
    /// Attempt `attempt` (1-based) began executing.
    AttemptStarted {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Attempt `attempt` failed and the job will retry after
    /// `backoff_us`. The *final* failure of a job is not an
    /// `AttemptFailed` — it is carried by the `Terminal{failed}` event —
    /// so a gap-free chain has exactly `attempts - 1` of these.
    AttemptFailed {
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Why, as classified from the error message.
        error_class: ErrorClass,
        /// Backoff slept before the next attempt.
        backoff_us: u64,
    },
    /// Cancellation reached the job, from the given source.
    CancelRequested {
        /// Which trigger path fired (api/cycle/deadline/shutdown).
        source: CancelSource,
    },
    /// The job reached its terminal state; `total_wall_us` spans worker
    /// pickup to the terminal state (0 for jobs that never ran).
    Terminal {
        /// The terminal status.
        status: JobStatus,
        /// Microseconds from pickup to terminal state.
        total_wall_us: u64,
    },
    /// A periodic sample of the service counters (empty job id).
    HealthSnapshot {
        /// The counters at sample time.
        health: Health,
    },
}

impl EventKind {
    /// Stable type tag used in the servicetrace document.
    pub fn type_name(&self) -> &'static str {
        match self {
            EventKind::Submitted { .. } => "submitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Dequeued { .. } => "dequeued",
            EventKind::AttemptStarted { .. } => "attempt_started",
            EventKind::AttemptFailed { .. } => "attempt_failed",
            EventKind::CancelRequested { .. } => "cancel_requested",
            EventKind::Terminal { .. } => "terminal",
            EventKind::HealthSnapshot { .. } => "health_snapshot",
        }
    }
}

/// One journal entry: a typed transition plus its causal coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (strictly increasing across the journal).
    pub seq: u64,
    /// Microseconds since the journal's epoch (monotonic clock).
    pub ts_us: u64,
    /// The job this event belongs to (empty for health snapshots).
    pub job: String,
    /// Worker index that performed the transition, when one did.
    pub worker: Option<u32>,
    /// The transition payload.
    pub kind: EventKind,
}

impl Event {
    /// The event as a JSON object: one element of the document's `events`
    /// array.
    pub fn to_json(&self) -> Json {
        let mut doc = obj!(self; seq, ts_us, type = self.kind.type_name());
        doc.push_some("job", Some(self.job.as_str()).filter(|job| !job.is_empty()));
        doc.push_some("worker", self.worker);
        match &self.kind {
            EventKind::Submitted { queue_depth } => doc.push("queue_depth", *queue_depth),
            EventKind::Rejected { reason } => doc.push("reason", *reason),
            EventKind::Dequeued { queue_wait_us } => doc.push("queue_wait_us", *queue_wait_us),
            EventKind::AttemptStarted { attempt } => doc.push("attempt", *attempt),
            EventKind::AttemptFailed {
                attempt,
                error_class,
                backoff_us,
            } => {
                doc.push("attempt", *attempt);
                doc.push("error_class", error_class.as_str());
                doc.push("backoff_us", *backoff_us);
            }
            EventKind::CancelRequested { source } => doc.push("source", source.as_str()),
            EventKind::Terminal {
                status,
                total_wall_us,
            } => {
                doc.push("status", status.as_str());
                doc.push("total_wall_us", *total_wall_us);
            }
            EventKind::HealthSnapshot { health } => doc.extend(health.to_json()),
        }
        doc
    }

    /// Read an event back (inverse of [`Event::to_json`]).
    ///
    /// # Errors
    ///
    /// An unknown `type`; a missing or mistyped field of the common part
    /// or of that type's payload (every event but a health snapshot names
    /// its job, and dequeue/attempt events their worker); an enum field
    /// holding a tag its table does not know.
    pub fn from_json(doc: &Json) -> Result<Event, String> {
        let int32 = |key: &str| {
            u32::try_from(doc.need_u64(key)?).map_err(|_| format!("`{key}` does not fit 32 bits"))
        };
        let kind = match doc.need_str("type")? {
            "submitted" => EventKind::Submitted {
                queue_depth: doc.need_u64("queue_depth")?,
            },
            "rejected" => EventKind::Rejected {
                reason: doc.need_tag("reason", &REJECT_REASONS, |r| r)?,
            },
            "dequeued" => EventKind::Dequeued {
                queue_wait_us: doc.need_u64("queue_wait_us")?,
            },
            "attempt_started" => EventKind::AttemptStarted {
                attempt: int32("attempt")?,
            },
            "attempt_failed" => EventKind::AttemptFailed {
                attempt: int32("attempt")?,
                error_class: doc.need_tag("error_class", &ErrorClass::ALL, ErrorClass::as_str)?,
                backoff_us: doc.need_u64("backoff_us")?,
            },
            "cancel_requested" => EventKind::CancelRequested {
                source: doc.need_tag("source", &CancelSource::ALL, CancelSource::as_str)?,
            },
            "terminal" => EventKind::Terminal {
                status: doc.need_tag("status", &JobStatus::ALL, JobStatus::as_str)?,
                total_wall_us: doc.need_u64("total_wall_us")?,
            },
            "health_snapshot" => EventKind::HealthSnapshot {
                health: Health::from_json(doc)?,
            },
            other => return Err(format!("unknown event type `{other}`")),
        };
        let on_worker = matches!(
            kind,
            EventKind::Dequeued { .. }
                | EventKind::AttemptStarted { .. }
                | EventKind::AttemptFailed { .. }
        );
        Ok(Event {
            seq: doc.need_u64("seq")?,
            ts_us: doc.need_u64("ts_us")?,
            job: match kind {
                EventKind::HealthSnapshot { .. } => String::new(),
                _ => doc.need_str("job")?.to_owned(),
            },
            worker: match doc.get("worker") {
                None if !on_worker => None,
                _ => Some(int32("worker")?),
            },
            kind,
        })
    }
}

#[derive(Debug)]
struct Inner {
    events: std::collections::VecDeque<Event>,
    dropped: u64,
}

/// The journal itself. Construct with [`Journal::full`] (unbounded) or
/// [`Journal::flight_recorder`] (fixed-capacity ring), attach via
/// `Service::start_with_journal`, and read back with [`Journal::events`] /
/// [`Journal::chrome_trace`] / `service_document` once the service has
/// drained.
#[derive(Debug)]
pub struct Journal {
    epoch: Instant,
    /// `usize::MAX` = unbounded.
    capacity: usize,
    snapshot_interval: Option<Duration>,
    snapshot_depth_max: AtomicU64,
    inner: Mutex<Inner>,
}

impl Journal {
    /// An unbounded journal recording every event of the run.
    pub fn full(snapshot_interval: Option<Duration>) -> Journal {
        Journal::with_capacity(usize::MAX, snapshot_interval)
    }

    /// A fixed-capacity ring keeping the *last* `capacity` events — the
    /// flight-recorder mode `reproduce serve` always arms.
    pub fn flight_recorder(capacity: usize, snapshot_interval: Option<Duration>) -> Journal {
        Journal::with_capacity(capacity.max(1), snapshot_interval)
    }

    fn with_capacity(capacity: usize, snapshot_interval: Option<Duration>) -> Journal {
        Journal {
            epoch: Instant::now(),
            capacity,
            snapshot_interval,
            snapshot_depth_max: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                events: std::collections::VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// The configured health-snapshot interval, if any.
    pub fn snapshot_interval(&self) -> Option<Duration> {
        self.snapshot_interval
    }

    /// The ring capacity; `None` for an unbounded journal.
    pub fn capacity(&self) -> Option<usize> {
        Some(self.capacity).filter(|&n| n != usize::MAX)
    }

    /// Microseconds since the journal's epoch (monotonic).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Record one transition.
    pub fn record(&self, job: &str, worker: Option<u32>, kind: EventKind) {
        let job = job.to_owned();
        let mut inner = lock(&self.inner);
        // Numbered (the count of events ever recorded) and timestamped
        // under the lock, so retention order is `seq` order and `ts_us`
        // never runs backwards along it, whatever the thread scheduling.
        let event = Event {
            seq: inner.dropped + inner.events.len() as u64,
            ts_us: self.now_us(),
            job,
            worker,
            kind,
        };
        // Ring semantics: drop the *oldest*, keep the tail that explains
        // the present.
        while inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Record one periodic health sample.
    pub fn record_snapshot(&self, health: Health) {
        self.snapshot_depth_max
            .fetch_max(health.queue_depth, Ordering::Relaxed);
        self.record("", None, EventKind::HealthSnapshot { health });
    }

    /// Snapshot of the recorded events, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.inner).events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.inner).events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).events.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// Whether the journal still holds every event it ever recorded
    /// (ring journals that wrapped are incomplete; span-closure checks
    /// only apply to complete journals).
    pub fn is_complete(&self) -> bool {
        self.dropped() == 0
    }

    /// Highest queue depth any health snapshot observed.
    pub fn snapshot_queue_depth_max(&self) -> u64 {
        self.snapshot_depth_max.load(Ordering::Relaxed)
    }

    /// Re-derive the ledger counters from the events alone
    /// ([`derive_counts`]).
    pub fn derived(&self) -> Health {
        derive_counts(&self.events())
    }

    /// Check every journal invariant ([`check_events`]); returns one
    /// message per violation (empty = healthy). Span-closure checks are
    /// skipped for wrapped rings.
    pub fn check_invariants(&self, health: Option<&Health>) -> Vec<String> {
        check_events(&self.events(), self.is_complete(), health)
    }

    /// Render the journal as Chrome trace-event JSON via the shared
    /// [`ChromeTraceWriter`]: one track per worker, queue-wait and
    /// attempt spans as complete events, rejections/cancellations as
    /// instants, queue depth as a counter track. Timestamps are journal
    /// microseconds.
    pub fn chrome_trace(&self, workers: usize) -> String {
        chrome_trace_from_events(&self.events(), workers)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Nothing panics while holding the journal lock (pushes and clones
    // only), so poisoning is recoverable.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every journal invariant over an event slice, one message per
/// violation: `seq` strictly increasing and timestamps monotone per job;
/// and, when the slice is `complete` (nothing dropped by a ring), every
/// job's span chain gap-free, the accounting identity holding from the
/// events alone, and — given a `health` snapshot — the event-derived
/// counts agreeing with the counters status by status.
pub fn check_events(events: &[Event], complete: bool, health: Option<&Health>) -> Vec<String> {
    let mut violations = check_event_order(events);
    if complete {
        violations.extend(check_span_chains(events));
        let derived = derive_counts(events);
        let (terminal, submitted) = (derived.terminal(), derived.submitted);
        ensure!(
            violations,
            terminal == submitted,
            "accounting identity violated from events alone: \
             terminal {terminal} != submitted {submitted}"
        );
        if let Some(h) = health {
            let agrees = derived.ledger_json() == h.ledger_json();
            ensure!(
                violations,
                agrees,
                "journal-derived counts disagree with health counters: \
                 derived {} vs {}",
                derived.render_line(),
                h.render_line()
            );
        }
    }
    violations
}

/// The ledger counters re-derived from an event slice alone — the
/// journal-side half of the accounting identity: submissions, terminals
/// by status and retries (each `AttemptFailed` is exactly one retry), in
/// a [`Health`] whose gauges stay zero.
pub fn derive_counts(events: &[Event]) -> Health {
    let mut d = Health::default();
    for e in events {
        match &e.kind {
            EventKind::Submitted { .. } => d.submitted += 1,
            EventKind::AttemptFailed { .. } => d.retried += 1,
            EventKind::Terminal { status, .. } => match status {
                JobStatus::Completed => d.completed += 1,
                JobStatus::Failed => d.failed += 1,
                JobStatus::Cancelled => d.cancelled += 1,
                JobStatus::Deadline => d.deadline += 1,
                JobStatus::Rejected => d.rejected += 1,
            },
            _ => {}
        }
    }
    d
}

/// Global ordering invariants: seq strictly increasing, and timestamps
/// nondecreasing *per job* (what a reader of one span chain relies on).
fn check_event_order(events: &[Event]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut last_ts: HashMap<&str, u64> = HashMap::new();
    for e in events {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                violations.push(format!(
                    "seq not strictly increasing: {} after {prev}",
                    e.seq
                ));
            }
        }
        last_seq = Some(e.seq);
        let entry = last_ts.entry(e.job.as_str()).or_insert(0);
        if e.ts_us < *entry {
            violations.push(format!(
                "job `{}`: timestamp went backwards ({} after {})",
                e.job, e.ts_us, entry
            ));
        }
        *entry = (*entry).max(e.ts_us);
    }
    violations
}

/// Each job's events — its span chain — in first-seen job order (health
/// snapshots belong to no job).
fn span_chains(events: &[Event]) -> Vec<(&str, Vec<&Event>)> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut chains: Vec<(&str, Vec<&Event>)> = Vec::new();
    for e in events.iter().filter(|e| !e.job.is_empty()) {
        let slot = *index.entry(e.job.as_str()).or_insert(chains.len());
        if slot == chains.len() {
            chains.push((e.job.as_str(), Vec::new()));
        }
        chains[slot].1.push(e);
    }
    chains
}

/// Per-job span-chain closure: every job's chain is gap-free from
/// `Submitted` to `Terminal` (see the module docs for the grammar).
/// Only meaningful on complete journals.
fn check_span_chains(events: &[Event]) -> Vec<String> {
    let mut violations = Vec::new();
    for (job, chain) in span_chains(events) {
        let mut bad = |msg: String| violations.push(format!("job `{job}`: {msg}"));
        if !matches!(chain[0].kind, EventKind::Submitted { .. }) {
            bad(format!(
                "chain starts with {} instead of submitted",
                chain[0].kind.type_name()
            ));
        }
        if chain[1..]
            .iter()
            .any(|e| matches!(e.kind, EventKind::Submitted { .. }))
        {
            bad("submitted more than once".to_owned());
        }
        let terminals = chain
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminal { .. }))
            .count();
        if terminals != 1 {
            bad(format!("{terminals} terminal events, expected exactly 1"));
            continue;
        }
        let last = chain[chain.len() - 1];
        let EventKind::Terminal { status, .. } = last.kind else {
            bad(format!(
                "terminal is not the last event ({} is)",
                last.kind.type_name()
            ));
            continue;
        };
        let was_rejected = chain
            .iter()
            .any(|e| matches!(e.kind, EventKind::Rejected { .. }));
        if was_rejected != (status == JobStatus::Rejected) {
            bad(format!(
                "rejected event presence disagrees with terminal status `{}`",
                status.as_str()
            ));
        }
        // Attempt numbering: consecutive from 1, each failure matching
        // the attempt it ends, failures strictly between starts, and
        // exactly one fewer failure than starts on the retry path.
        let mut started: u32 = 0;
        let mut failed: u32 = 0;
        let mut dequeued = false;
        for e in chain.iter() {
            match e.kind {
                EventKind::Dequeued { .. } => dequeued = true,
                EventKind::AttemptStarted { attempt } => {
                    if !dequeued {
                        bad(format!("attempt {attempt} started before dequeue"));
                    }
                    if attempt != started + 1 {
                        bad(format!(
                            "attempt numbering gap: attempt {attempt} after {started}"
                        ));
                    }
                    if failed != started {
                        bad(format!(
                            "attempt {attempt} started while attempt {started} \
                             has no recorded failure"
                        ));
                    }
                    started = attempt;
                }
                EventKind::AttemptFailed { attempt, .. } => {
                    if attempt != started {
                        bad(format!(
                            "failure of attempt {attempt} but attempt {started} was running"
                        ));
                    }
                    failed += 1;
                }
                _ => {}
            }
        }
        // A completed/failed job records exactly starts - 1 retry
        // failures (the final failure travels on `Terminal{failed}`).
        // A cancelled/deadline job may also have failed == started:
        // the abort landed during the retry backoff, after the failure
        // was journaled but before the next start.
        let aborted = matches!(status, JobStatus::Cancelled | JobStatus::Deadline);
        if started > 0 && failed != started - 1 && !(aborted && failed == started) {
            bad(format!(
                "{failed} attempt failures for {started} starts \
                 (a gap-free chain has exactly starts - 1)"
            ));
        }
        if status == JobStatus::Rejected && started > 0 {
            bad("rejected job has attempt events".to_owned());
        }
    }
    violations
}

/// [`Journal::chrome_trace`] over an explicit event slice — the seam the
/// golden-trace test uses to lock the export format with synthetic,
/// clock-free events.
pub fn chrome_trace_from_events(events: &[Event], workers: usize) -> String {
    let mut writer = ChromeTraceWriter::default();
    writer.thread_name(0, "service");
    for w in 0..workers {
        writer.thread_name(w as u64 + 1, &format!("worker {w}"));
    }

    let chains = span_chains(events);
    for (job, chain) in &chains {
        // The worker track the job ran on (tid = worker + 1; tid 0 is
        // the service track for events with no worker).
        let tid = |e: &Event| e.worker.map_or(0, |w| u64::from(w) + 1);
        let submitted_ts = chain
            .iter()
            .find(|e| matches!(e.kind, EventKind::Submitted { .. }))
            .map(|e| e.ts_us);
        let terminal = chain
            .iter()
            .find(|e| matches!(e.kind, EventKind::Terminal { .. }));
        let status = terminal.map_or("unknown", |e| match e.kind {
            EventKind::Terminal { status, .. } => status.as_str(),
            _ => unreachable!(),
        });
        for (i, e) in chain.iter().enumerate() {
            match e.kind {
                EventKind::Dequeued { queue_wait_us } => {
                    if let Some(ts) = submitted_ts {
                        writer.complete(
                            &format!("queued:{job}"),
                            "queue",
                            ts,
                            e.ts_us.saturating_sub(ts),
                            tid(e),
                            obj!((); job = *job, queue_wait_us = queue_wait_us),
                        );
                    }
                }
                EventKind::AttemptStarted { attempt } => {
                    // The attempt span ends at its failure event, or at
                    // the terminal event for the last attempt. An attempt
                    // that ends in `AttemptFailed` is labelled `retried`
                    // (its failure fed a retry); only the final attempt
                    // carries the job's terminal status.
                    let end = chain[i + 1..].iter().find(|n| {
                        matches!(
                            n.kind,
                            EventKind::AttemptFailed { .. } | EventKind::Terminal { .. }
                        )
                    });
                    let end_ts = end.map_or(e.ts_us, |n| n.ts_us);
                    let outcome = match end.map(|n| &n.kind) {
                        Some(EventKind::AttemptFailed { .. }) => "retried",
                        _ => status,
                    };
                    writer.complete(
                        job,
                        "attempt",
                        e.ts_us,
                        end_ts.saturating_sub(e.ts_us),
                        tid(e),
                        obj!((); attempt = attempt, status = outcome),
                    );
                }
                EventKind::Rejected { reason } => {
                    writer.instant(
                        &format!("rejected:{job}"),
                        "rejected",
                        e.ts_us,
                        tid(e),
                        obj!((); reason = reason),
                    );
                }
                EventKind::CancelRequested { source } => {
                    writer.instant(
                        &format!("cancel:{job}"),
                        "cancel",
                        e.ts_us,
                        tid(e),
                        obj!((); source = source.as_str()),
                    );
                }
                EventKind::Terminal { status, .. } => {
                    // Jobs that never started an attempt (queue-
                    // cancelled) still get a visible mark.
                    let attempted = chain
                        .iter()
                        .any(|c| matches!(c.kind, EventKind::AttemptStarted { .. }));
                    if !attempted {
                        writer.instant(
                            &format!("{}:{job}", status.as_str()),
                            "terminal",
                            e.ts_us,
                            tid(e),
                            obj!(();),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    // Queue depth as a counter track, sampled at every submission and
    // health snapshot.
    for e in events {
        match e.kind {
            EventKind::Submitted { queue_depth } => {
                writer.counter("queue_depth", e.ts_us, queue_depth);
            }
            EventKind::HealthSnapshot { ref health } => {
                writer.counter("queue_depth", e.ts_us, health.queue_depth);
            }
            _ => {}
        }
    }

    let dropped = events.first().map_or(0, |e| e.seq);
    writer.finish(
        &obj!((); source = "peakperf service journal", unit = "microseconds",
        workers = workers, jobs = chains.len(), dropped_events = dropped),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, ts_us: u64, job: &str, worker: Option<u32>, kind: EventKind) -> Event {
        Event {
            seq,
            ts_us,
            job: job.to_owned(),
            worker,
            kind,
        }
    }

    /// A well-formed two-attempt completed job plus a rejected one.
    fn sample_events() -> Vec<Event> {
        vec![
            ev(0, 0, "a", None, EventKind::Submitted { queue_depth: 1 }),
            ev(1, 5, "a", Some(0), EventKind::Dequeued { queue_wait_us: 5 }),
            ev(2, 6, "a", Some(0), EventKind::AttemptStarted { attempt: 1 }),
            ev(
                3,
                20,
                "a",
                Some(0),
                EventKind::AttemptFailed {
                    attempt: 1,
                    error_class: ErrorClass::Flaky,
                    backoff_us: 1000,
                },
            ),
            ev(
                4,
                1030,
                "a",
                Some(0),
                EventKind::AttemptStarted { attempt: 2 },
            ),
            ev(
                5,
                1100,
                "a",
                Some(0),
                EventKind::Terminal {
                    status: JobStatus::Completed,
                    total_wall_us: 1095,
                },
            ),
            ev(6, 1200, "b", None, EventKind::Submitted { queue_depth: 1 }),
            ev(
                7,
                1201,
                "b",
                None,
                EventKind::Rejected {
                    reason: "overloaded",
                },
            ),
            ev(
                8,
                1202,
                "b",
                None,
                EventKind::Terminal {
                    status: JobStatus::Rejected,
                    total_wall_us: 0,
                },
            ),
        ]
    }

    #[test]
    fn derive_counts_rebuilds_the_identity_from_events_alone() {
        let d = derive_counts(&sample_events());
        assert_eq!(d.submitted, 2);
        assert_eq!(d.completed, 1);
        assert_eq!(d.rejected, 1);
        assert_eq!(d.retried, 1);
        assert!(d.accounted());
    }

    #[test]
    fn well_formed_chains_pass_invariants() {
        assert_eq!(check_event_order(&sample_events()), Vec::<String>::new());
        assert_eq!(check_span_chains(&sample_events()), Vec::<String>::new());
    }

    #[test]
    fn gaps_in_span_chains_are_detected() {
        // Missing attempt 1: numbering gap + orphan failure count.
        let mut events = sample_events();
        events.remove(2);
        let violations = check_span_chains(&events);
        assert!(
            violations.iter().any(|v| v.contains("numbering gap")),
            "{violations:?}"
        );

        // Terminal before the last event.
        let mut events = sample_events();
        events.swap(4, 5);
        assert!(check_span_chains(&events)
            .iter()
            .any(|v| v.contains("terminal is not the last event")));

        // A chain with no submitted.
        let events = vec![ev(
            0,
            0,
            "x",
            Some(0),
            EventKind::Terminal {
                status: JobStatus::Completed,
                total_wall_us: 1,
            },
        )];
        assert!(check_span_chains(&events)
            .iter()
            .any(|v| v.contains("instead of submitted")));

        // Attempt started before dequeue.
        let events = vec![
            ev(0, 0, "y", None, EventKind::Submitted { queue_depth: 1 }),
            ev(1, 1, "y", Some(0), EventKind::AttemptStarted { attempt: 1 }),
            ev(
                2,
                2,
                "y",
                Some(0),
                EventKind::Terminal {
                    status: JobStatus::Completed,
                    total_wall_us: 2,
                },
            ),
        ];
        assert!(check_span_chains(&events)
            .iter()
            .any(|v| v.contains("before dequeue")));
    }

    #[test]
    fn event_order_violations_are_detected() {
        let mut events = sample_events();
        events[1].seq = 0;
        assert!(check_event_order(&events)
            .iter()
            .any(|v| v.contains("seq not strictly increasing")));

        let mut events = sample_events();
        events[4].ts_us = 1;
        assert!(check_event_order(&events)
            .iter()
            .any(|v| v.contains("timestamp went backwards")));
    }

    #[test]
    fn ring_drops_oldest_and_marks_incomplete() {
        let journal = Journal::flight_recorder(3, None);
        for i in 0..5u64 {
            journal.record(
                &format!("j{i}"),
                None,
                EventKind::Submitted { queue_depth: i },
            );
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.dropped(), 2);
        assert!(!journal.is_complete());
        let events = journal.events();
        // The tail survives: j2, j3, j4.
        assert_eq!(events[0].job, "j2");
        assert_eq!(events[2].job, "j4");
        // Wrapped rings skip span-closure checks but keep order checks.
        assert_eq!(journal.check_invariants(None), Vec::<String>::new());
    }

    #[test]
    fn concurrent_recording_numbers_events_in_retention_order() {
        // `seq` and `ts_us` used to be drawn before the journal lock was
        // taken, so a recorder preempted in between landed out of order
        // (seen as "seq not strictly increasing: 9 after 164" on a one-CPU
        // soak). All four threads record for one job, as an api cancel
        // and a worker's attempt failure do.
        let journal = Journal::full(None);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (journal, start) = (&journal, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..5_000 {
                        let kind = EventKind::Submitted { queue_depth: i };
                        journal.record("shared", Some(t), kind);
                    }
                });
            }
        });
        let events = journal.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..20_000).collect::<Vec<u64>>());
        assert_eq!(check_events(&events, false, None), Vec::<String>::new());
    }

    #[test]
    fn snapshots_track_the_depth_high_water_mark() {
        let journal = Journal::full(Some(Duration::from_millis(10)));
        let mut health = Health {
            queue_depth: 7,
            ..Health::default()
        };
        journal.record_snapshot(health);
        health.queue_depth = 3;
        journal.record_snapshot(health);
        assert_eq!(journal.snapshot_queue_depth_max(), 7);
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.events()[0].kind.type_name(), "health_snapshot");
    }

    #[test]
    fn events_round_trip_through_their_json_lines() {
        let mut events = sample_events();
        events.push(ev(
            9,
            1300,
            "c",
            None,
            EventKind::CancelRequested {
                source: CancelSource::Shutdown,
            },
        ));
        let health = Health {
            submitted: 3,
            queue_depth: 2,
            ..Health::default()
        };
        events.push(ev(10, 1400, "", None, EventKind::HealthSnapshot { health }));
        for e in &events {
            let line = e.to_json().render();
            let parsed = Json::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(Event::from_json(&parsed).as_ref(), Ok(e), "{line}");
            assert_eq!(
                parsed.get("type").and_then(Json::as_str),
                Some(e.kind.type_name())
            );
        }
        let snapshot = events.last().unwrap().to_json();
        assert_eq!(snapshot.get("queue_depth"), Some(&Json::Int(2)));
        assert_eq!(snapshot.get("job"), None, "snapshots carry no job id");

        // The reader rejects what the writer cannot have written.
        for (edit, want) in [
            (("type", "teleported".into()), "unknown event type"),
            (
                ("status", "pending".into()),
                "status `pending` is not one of",
            ),
            (("total_wall_us", Json::Num(1.5)), "`total_wall_us` must be"),
            (("seq", Json::Null), "`seq` must be"),
        ] {
            let mut doc = events[5].to_json();
            *doc.get_mut(edit.0).unwrap() = edit.1;
            let err = Event::from_json(&doc).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        let mut unplaced = events[1].to_json();
        if let Json::Obj(members) = &mut unplaced {
            members.retain(|(k, _)| k != "worker");
        }
        assert!(Event::from_json(&unplaced)
            .unwrap_err()
            .contains("`worker`"));
    }

    #[test]
    fn journal_derived_counts_disagreeing_with_health_is_a_violation() {
        let journal = Journal::full(None);
        for e in sample_events() {
            journal.record(&e.job, e.worker, e.kind);
        }
        let wrong = Health {
            submitted: 5,
            ..Health::default()
        };
        assert!(journal
            .check_invariants(Some(&wrong))
            .iter()
            .any(|v| v.contains("disagree")));
    }

    #[test]
    fn chrome_export_parses_and_has_the_expected_tracks() {
        let trace = chrome_trace_from_events(&sample_events(), 2);
        let doc = Json::parse(&trace).unwrap();
        assert_eq!(crate::report::check_document(&doc), Vec::<String>::new());
        let names: Vec<&str> = doc
            .items("traceEvents")
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for want in ["thread_name", "queued:a", "a", "rejected:b", "queue_depth"] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        assert!(trace.contains("worker 0"), "worker tracks are named");
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("unit").unwrap().as_str(), Some("microseconds"));
    }

    #[test]
    fn error_classes_classify_the_three_failure_shapes() {
        assert_eq!(
            ErrorClass::classify("panicked at x\nbacktrace:\n  ..."),
            ErrorClass::Panic
        );
        assert_eq!(
            ErrorClass::classify("flaky job failed attempt 1 of 2 planned failure(s)"),
            ErrorClass::Flaky
        );
        assert_eq!(
            ErrorClass::classify("step limit exceeded"),
            ErrorClass::Error
        );
    }
}
