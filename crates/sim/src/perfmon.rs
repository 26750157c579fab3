//! Host-side performance observability for the simulator itself.
//!
//! PR 2 added observability *into the simulated GPU* (the trace/profile
//! layer); this module applies the same "measure with near-zero overhead
//! before you optimize" discipline to the *host code* that runs the
//! simulation, in three layers:
//!
//! * a process-wide **metrics registry** ([`counter_add`], [`snapshot`]) —
//!   monotonic named counters behind one runtime flag ([`enable`]), used by
//!   the timing cache and the bench executor to surface hit/store counts
//!   and queue-wait time. One relaxed atomic load when disabled.
//! * **host timing** through the timing simulator's one
//!   [`Observer`](crate::timing::Observer) trait: the scheduler loop wraps
//!   its sections in [`Stopwatch`] pairs that read the clock only when
//!   the observer's `HOST_TIMING` constant is set, so the default `()`
//!   monomorphization contains no timing code at all. Observers are pure
//!   — an observed run's cycle results are identical to an unobserved one.
//! * the **[`HostProf`]** observer: wall-time attribution per loop
//!   [`Phase`], idle-cycle run-length histograms by dominant
//!   [`StallKind`] (the event-driven fast-forward headroom), and the
//!   idle-skip speedup projection ([`HostProf::analyze`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::timing::{Observer, StallKind, TraceEvent, TraceEventKind};

// ---------------------------------------------------------------------
// Phases of the timing simulator's main loop
// ---------------------------------------------------------------------

/// Wall-time attribution buckets for one `TimingSim` run.
///
/// The six leaf phases are measured with [`Stopwatch`] pairs around
/// disjoint sections of the scheduler loop; [`Phase::IssueSelect`] is the
/// remainder (loop bookkeeping, warp polling, pipe/token checks), computed
/// at [`Observer::finish`] so the per-phase shares sum to exactly the run
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Scheduler bookkeeping and warp selection (the unmeasured remainder).
    IssueSelect,
    /// Scoreboard readiness checks and post-issue scoreboard updates.
    Scoreboard,
    /// Functional execution (`step_warp`).
    FuncExec,
    /// Shared-memory bank-conflict modeling.
    BankConflict,
    /// Global/local memory interface modeling.
    MemModel,
    /// Barrier release scanning.
    BarrierRelease,
    /// Event delivery to a trace consumer attached beside the profiler.
    TraceEmit,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 7;

    /// Every phase, in declaration (= serialization) order:
    /// `ALL[p.index()] == p`, asserted by the property tests.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::IssueSelect,
        Phase::Scoreboard,
        Phase::FuncExec,
        Phase::BankConflict,
        Phase::MemModel,
        Phase::BarrierRelease,
        Phase::TraceEmit,
    ];

    /// This phase's position in [`Phase::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Phase::IssueSelect => 0,
            Phase::Scoreboard => 1,
            Phase::FuncExec => 2,
            Phase::BankConflict => 3,
            Phase::MemModel => 4,
            Phase::BarrierRelease => 5,
            Phase::TraceEmit => 6,
        }
    }

    /// Stable identifier used in the hostprof document and its schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::IssueSelect => "issue_select",
            Phase::Scoreboard => "scoreboard",
            Phase::FuncExec => "func_exec",
            Phase::BankConflict => "bank_conflict",
            Phase::MemModel => "mem_model",
            Phase::BarrierRelease => "barrier_release",
            Phase::TraceEmit => "trace_emit",
        }
    }
}

// ---------------------------------------------------------------------
// Section timing
// ---------------------------------------------------------------------

/// A wall-clock section timer that compiles away without host timing.
///
/// `start` reads the clock only when the observer type asks for host
/// timing; `stop` charges the elapsed time to a [`Phase`]. Constructed per
/// section in the scheduler loop, so the disabled instantiation carries
/// no `Instant` at all.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing a section (a no-op unless `O::HOST_TIMING`).
    #[inline]
    pub fn start<O: Observer>() -> Stopwatch {
        Stopwatch(if O::HOST_TIMING {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Charge the elapsed time to `phase`.
    #[inline]
    pub fn stop<O: Observer>(self, observer: &mut O, phase: Phase) {
        if let Some(t0) = self.0 {
            observer.phase(phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Log-scaled histograms
// ---------------------------------------------------------------------

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`
/// — the standard log2 layout, chosen because idle-run lengths and queue
/// waits span many orders of magnitude and the *shape* (is the mass in
/// 1-cycle bubbles or 1000-cycle memory shadows?) is what the speedup
/// projection needs, not exact quantiles.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Bucket count: one for zero plus one per bit of `u64`.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive `[lo, hi]` range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
            (lo, hi)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate over the non-empty buckets as `(lo, hi, count)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Histogram::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

// ---------------------------------------------------------------------
// The HostProf observer
// ---------------------------------------------------------------------

/// The opportunity analysis distilled from one probed run.
#[derive(Debug, Clone)]
pub struct Opportunity {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles in which no warp issued on any scheduler.
    pub idle_cycles: u64,
    /// Maximal runs of consecutive idle cycles.
    pub idle_runs: u64,
    /// Idle cycles an event-driven scheduler could skip outright
    /// (`idle_cycles - idle_runs`: each run still pays one cycle of event
    /// processing).
    pub idle_skippable: u64,
}

impl Opportunity {
    /// Projected speedup from skipping idle runs.
    pub fn idle_skip_speedup(&self) -> f64 {
        let cycles = self.cycles.max(1);
        let remaining = cycles.saturating_sub(self.idle_skippable).max(1);
        cycles as f64 / remaining as f64
    }
}

/// The host-timing [`Observer`]: phase wall-time attribution plus the
/// idle-run analysis behind `reproduce hostprof`.
#[derive(Debug, Clone)]
pub struct HostProf {
    phase_nanos: [u64; Phase::COUNT],
    total_nanos: u64,
    cycles: u64,
    /// Per-cycle scratch, reset by `cycle_end`.
    issues_this_cycle: u32,
    stalls_this_cycle: [u64; StallKind::COUNT],
    /// Open idle run.
    idle_run_len: u64,
    idle_run_stalls: [u64; StallKind::COUNT],
    /// Totals.
    idle_cycles: u64,
    idle_runs: u64,
    /// Run-length histograms by dominant stall kind; the extra slot
    /// ([`StallKind::COUNT`]) holds runs with no recorded stall (e.g.
    /// every poll skipped by the Kepler half-rate scheduler gate).
    idle_hist: Vec<Histogram>,
}

impl HostProf {
    /// A fresh profiler.
    pub fn new() -> HostProf {
        HostProf {
            phase_nanos: [0; Phase::COUNT],
            total_nanos: 0,
            cycles: 0,
            issues_this_cycle: 0,
            stalls_this_cycle: [0; StallKind::COUNT],
            idle_run_len: 0,
            idle_run_stalls: [0; StallKind::COUNT],
            idle_cycles: 0,
            idle_runs: 0,
            idle_hist: vec![Histogram::new(); StallKind::COUNT + 1],
        }
    }

    fn close_idle_run(&mut self) {
        if self.idle_run_len == 0 {
            return;
        }
        self.idle_runs += 1;
        // Dominant blocking cause over the run; ties break toward the
        // smaller StallKind index, runs with no recorded stall go to the
        // unattributed slot.
        let mut dominant = StallKind::COUNT;
        let mut best = 0u64;
        for (i, &n) in self.idle_run_stalls.iter().enumerate() {
            if n > best {
                best = n;
                dominant = i;
            }
        }
        self.idle_hist[dominant].record(self.idle_run_len);
        self.idle_run_len = 0;
        self.idle_run_stalls = [0; StallKind::COUNT];
    }

    /// Wall nanoseconds attributed to `phase` (with [`Phase::IssueSelect`]
    /// holding the remainder after [`Observer::finish`]).
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Total run wall time in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Total simulated cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Idle-run length histogram for one dominant stall kind, or the
    /// unattributed slot when `kind` is `None`.
    pub fn idle_histogram(&self, kind: Option<StallKind>) -> &Histogram {
        match kind {
            Some(k) => &self.idle_hist[k.index()],
            None => &self.idle_hist[StallKind::COUNT],
        }
    }

    /// Distill the recorded stream into the speedup-opportunity analysis.
    pub fn analyze(&self) -> Opportunity {
        Opportunity {
            cycles: self.cycles,
            idle_cycles: self.idle_cycles,
            idle_runs: self.idle_runs,
            idle_skippable: self.idle_cycles.saturating_sub(self.idle_runs),
        }
    }
}

impl Default for HostProf {
    fn default() -> HostProf {
        HostProf::new()
    }
}

impl Observer for HostProf {
    const EVENTS: bool = true;
    const HOST_TIMING: bool = true;

    /// Tallies issues and stalls per cycle (one `Stall` event per counted
    /// stall, mirroring `TimingReport::stalls`).
    fn event(&mut self, event: TraceEvent) {
        match event.kind {
            TraceEventKind::Issue { .. } => self.issues_this_cycle += 1,
            TraceEventKind::Stall(kind) => self.stalls_this_cycle[kind.index()] += 1,
            TraceEventKind::BarrierRelease | TraceEventKind::WarpExit => {}
        }
    }

    fn phase(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()] += nanos;
    }

    fn cycle_end(&mut self, _cycle: u64) {
        self.cycles += 1;
        if self.issues_this_cycle == 0 {
            self.idle_cycles += 1;
            self.idle_run_len += 1;
            for (run, &now) in self
                .idle_run_stalls
                .iter_mut()
                .zip(self.stalls_this_cycle.iter())
            {
                *run += now;
            }
        } else {
            self.close_idle_run();
        }
        self.issues_this_cycle = 0;
        self.stalls_this_cycle = [0; StallKind::COUNT];
    }

    fn finish(&mut self, cycles: u64, wall_nanos: u64) {
        self.close_idle_run();
        self.cycles = cycles;
        self.total_nanos = wall_nanos;
        let leaves: u64 = Phase::ALL
            .into_iter()
            .filter(|p| *p != Phase::IssueSelect)
            .map(|p| self.phase_nanos[p.index()])
            .sum();
        self.phase_nanos[Phase::IssueSelect.index()] = wall_nanos.saturating_sub(leaves);
    }
}

// ---------------------------------------------------------------------
// The process-wide metrics registry
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, u64>>> = OnceLock::new();

/// Enable the process-wide metrics registry (off by default; when off,
/// every [`counter_add`] is a single relaxed atomic load).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable the registry (accumulated values are retained).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, u64>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Add `n` to the named monotonic counter (a no-op while disabled).
///
/// Names are dotted paths (`timing_cache.hits`, `executor.queue_wait_ns`);
/// `_ns` suffixes mark wall-time totals so report layers know which values
/// are volatile.
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    let mut map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *map.entry(name).or_insert(0) += n;
}

/// A point-in-time copy of every registry counter (same snapshot/delta
/// pattern as [`crate::Counters`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
}

/// Snapshot the registry.
pub fn snapshot() -> MetricsSnapshot {
    let map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    MetricsSnapshot {
        counters: map.clone(),
    }
}

impl MetricsSnapshot {
    /// Counter growth since an earlier snapshot (counters absent earlier
    /// count from zero).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k, v - earlier.counters.get(k).copied().unwrap_or(0)))
            .filter(|(_, v)| *v > 0)
            .collect();
        MetricsSnapshot { counters }
    }

    /// Value of one counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether no counter has a value.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The counters as a JSON object, in name order.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(name, value)| (name, value.into())))
    }
}

impl FromIterator<(&'static str, u64)> for MetricsSnapshot {
    /// Build a snapshot from explicit `(name, value)` pairs — the fixture
    /// path for consumers that render snapshots, so their tests need not
    /// touch the process-global registry.
    fn from_iter<I: IntoIterator<Item = (&'static str, u64)>>(iter: I) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny deterministic generator for the property tests (no
    // Math.random in this codebase's test style either).
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    #[test]
    fn phase_views_stay_in_sync() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT, "phase names must be unique");
    }

    #[test]
    fn histogram_buckets_partition_the_domain() {
        // Every bucket's bounds are contiguous and ordered.
        let mut expected_lo = 0u64;
        for i in 0..Histogram::BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lo");
            assert!(hi >= lo, "bucket {i} ordering");
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "bucket 64 must end at u64::MAX");
    }

    #[test]
    fn histogram_samples_land_in_their_bucket() {
        let mut seed = 7u64;
        let mut h = Histogram::new();
        let mut values = vec![0u64, 1, 2, 3, 4, u64::MAX, u64::MAX / 2];
        for _ in 0..500 {
            values.push(lcg(&mut seed) >> (lcg(&mut seed) % 64));
        }
        for &v in &values {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(
                (lo..=hi).contains(&v),
                "value {v} bucketed into [{lo}, {hi}]"
            );
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = h.iter_nonzero().map(|(_, _, c)| c).sum();
        assert_eq!(bucket_total, h.count(), "bucket counts must sum to count");
    }

    #[test]
    fn hostprof_attributes_idle_runs_by_dominant_stall() {
        let ev = |kind| TraceEvent {
            cycle: 0,
            scheduler: 0,
            warp: 0,
            pc: 3,
            kind,
        };
        let issue = ev(TraceEventKind::Issue {
            lanes: 32,
            dual: false,
        });
        let mut p = HostProf::new();
        // Cycle 0: an issue (busy).
        p.event(issue);
        p.cycle_end(0);
        // Cycles 1-3: idle, dominated by Scoreboard.
        for c in 1..=3 {
            p.event(ev(TraceEventKind::Stall(StallKind::Scoreboard)));
            p.event(ev(TraceEventKind::Stall(StallKind::Scoreboard)));
            p.event(ev(TraceEventKind::Stall(StallKind::Pipe)));
            p.cycle_end(c);
        }
        // Cycle 4: busy again closes the run.
        p.event(issue);
        p.cycle_end(4);
        // Cycles 5-6: idle with no recorded stall at all.
        p.cycle_end(5);
        p.cycle_end(6);
        p.finish(7, 1_000);

        assert_eq!(p.idle_cycles, 5);
        assert_eq!(p.idle_runs, 2);
        let sb = p.idle_histogram(Some(StallKind::Scoreboard));
        assert_eq!(sb.count(), 1);
        assert_eq!(sb.sum(), 3);
        assert_eq!(p.idle_histogram(None).count(), 1);
        assert_eq!(p.idle_histogram(None).sum(), 2);
        assert_eq!(p.idle_histogram(Some(StallKind::Pipe)).count(), 0);

        let a = p.analyze();
        assert_eq!(a.idle_skippable, 3);
        assert!((a.idle_skip_speedup() - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn hostprof_issue_select_is_the_remainder() {
        let mut p = HostProf::new();
        p.phase(Phase::Scoreboard, 300);
        p.phase(Phase::FuncExec, 200);
        p.finish(10, 1_000);
        assert_eq!(p.phase_nanos(Phase::IssueSelect), 500);
        let total: u64 = Phase::ALL.into_iter().map(|ph| p.phase_nanos(ph)).sum();
        assert_eq!(total, p.total_nanos(), "shares must sum to the run wall");
        // Leaves exceeding the (noisy) total must not underflow.
        let mut q = HostProf::new();
        q.phase(Phase::MemModel, 2_000);
        q.finish(10, 1_000);
        assert_eq!(q.phase_nanos(Phase::IssueSelect), 0);
    }

    #[test]
    fn registry_counts_only_while_enabled() {
        // The registry is process-global; use names no other test touches.
        let before = snapshot();
        counter_add("test.perfmon.disabled", 5);
        assert_eq!(
            snapshot().delta_since(&before).get("test.perfmon.disabled"),
            0
        );
        enable();
        counter_add("test.perfmon.enabled", 2);
        counter_add("test.perfmon.enabled", 3);
        disable();
        counter_add("test.perfmon.enabled", 100);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.get("test.perfmon.enabled"), 5);
        assert_eq!(delta.get("test.perfmon.disabled"), 0);
        assert_eq!(
            delta.to_json().get("test.perfmon.enabled"),
            Some(&Json::Int(5))
        );
        assert_eq!(MetricsSnapshot::default().to_json().render(), "{}");
    }
}
