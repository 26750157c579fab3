//! Host-side performance observability for the simulator itself.
//!
//! PR 2 added observability *into the simulated GPU* (the trace/profile
//! layer); this module applies the same "measure with near-zero overhead
//! before you optimize" discipline to the *host code* that runs the
//! simulation, in two layers:
//!
//! * **host timing** through the timing simulator's one [`Observer`]
//!   trait: the scheduler loop wraps its sections in [`Stopwatch`] pairs
//!   that read the clock only when the observer's `HOST_TIMING` constant
//!   is set, so the default `()` monomorphization contains no timing
//!   code at all. Observers are pure — an observed run's cycle results
//!   are identical to an unobserved one.
//! * the **[`HostProf`]** observer: wall-time attribution per loop
//!   [`Phase`], plus the number of idle cycles (no warp issued on any
//!   scheduler) — the unit ROADMAP's parked idle fast-forward states its
//!   revisit condition in.

use std::time::Instant;

use crate::timing::{Observer, TraceEvent, TraceEventKind};

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
// The HostProf observer
// ---------------------------------------------------------------------

/// The host-timing [`Observer`]: phase wall-time attribution plus the
/// idle-cycle count behind `reproduce hostprof`.
#[derive(Debug, Clone, Default)]
pub struct HostProf {
    phase_nanos: [u64; Phase::COUNT],
    total_nanos: u64,
    cycles: u64,
    /// Whether any warp issued this cycle; reset by `cycle_end`.
    issued_this_cycle: bool,
    idle_cycles: u64,
}

impl HostProf {
    /// A fresh profiler.
    pub fn new() -> HostProf {
        HostProf::default()
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

    /// Cycles in which no warp issued on any scheduler.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }
}

impl Observer for HostProf {
    const EVENTS: bool = true;
    const HOST_TIMING: bool = true;

    fn event(&mut self, event: TraceEvent) {
        self.issued_this_cycle |= matches!(event.kind, TraceEventKind::Issue { .. });
    }

    fn phase(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()] += nanos;
    }

    fn cycle_end(&mut self, _cycle: u64) {
        self.cycles += 1;
        self.idle_cycles += u64::from(!self.issued_this_cycle);
        self.issued_this_cycle = false;
    }

    fn finish(&mut self, cycles: u64, wall_nanos: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::StallKind;

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
    fn hostprof_counts_cycles_without_an_issue_as_idle() {
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
        // Cycles 1-3: stalls only.
        for c in 1..=3 {
            p.event(ev(TraceEventKind::Stall(StallKind::Scoreboard)));
            p.cycle_end(c);
        }
        // Cycle 4: busy again; cycles 5-6: no event at all.
        p.event(issue);
        p.cycle_end(4);
        p.cycle_end(5);
        p.cycle_end(6);
        p.finish(7, 1_000);
        assert_eq!(p.cycles(), 7);
        assert_eq!(p.idle_cycles(), 5);
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
}
