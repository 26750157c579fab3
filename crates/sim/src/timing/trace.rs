//! Cycle-level event tracing for the timing simulator, and the single
//! [`Observer`] trait every instrument of a run implements.
//!
//! The simulator's scheduler loop emits one [`TraceEvent`] per issue
//! attempt outcome — an instruction issued (primary or dual dispatch
//! slot), a runnable warp blocked with a [`StallKind`], a barrier
//! released, a warp exited. The in-tree observers are [`TraceBuffer`]
//! (records raw events, for the Chrome trace export) and
//! [`super::profile::ProfileBuilder`] (aggregates in-flight, for
//! arbitrarily long runs).
//!
//! # Overhead guarantee
//!
//! Observing must never perturb timing and must cost nothing when unused:
//! every emission site is behind [`Observer::EVENTS`], `false` for `()`,
//! and nothing an observer returns feeds back into the simulation — any
//! observer leaves every [`TimingReport`](super::TimingReport) field
//! unchanged (asserted by `tests/observer_identity.rs`). A hang skips its
//! recurring periods under an observer too, replaying one recorded period
//! per skipped one, so the observer gets the stepping run's exact event
//! stream (DESIGN.md §5.1); only a cancel token makes a run step every
//! cycle.

use peakperf_sass::Kernel;

use crate::cancel::CancelToken;
use crate::json::ChromeTraceWriter;
use crate::obj;
use crate::timing::sm::StallKind;

/// Sentinel PC for events where the instruction index is not known
/// without extra work (e.g. a warp parked at a barrier).
pub const NO_PC: u32 = u32::MAX;

/// What happened at one (cycle, scheduler, warp) point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A warp instruction issued.
    Issue {
        /// Active lanes of the issued instruction.
        lanes: u8,
        /// Whether this went through the scheduler's second dispatch
        /// slot (Kepler dual issue).
        dual: bool,
    },
    /// A runnable warp could not issue, for the given reason.
    Stall(StallKind),
    /// The warp was released from a block-wide barrier.
    BarrierRelease,
    /// The warp executed its last instruction and left the SM.
    WarpExit,
}

/// One per-cycle scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Shader cycle the event happened on.
    pub cycle: u64,
    /// Scheduler that attempted the issue.
    pub scheduler: u8,
    /// Warp slot index on the SM.
    pub warp: u16,
    /// Instruction index, or [`NO_PC`] when unknown.
    pub pc: u32,
    /// The event payload.
    pub kind: TraceEventKind,
}

/// The one observer of a [`TimingSim`](super::TimingSim) run: it takes
/// the run's scheduler events.
///
/// Implementations must be pure observers: nothing they record may feed
/// back into the simulation. [`Observer::EVENTS`] gates the simulator's
/// emission sites at compile time, so the `()` instantiation is exactly
/// the uninstrumented loop.
pub trait Observer {
    /// Whether [`Observer::event`] should be called at all.
    const EVENTS: bool = false;

    /// Observe one scheduler event.
    fn event(&mut self, _event: TraceEvent) {}
    /// Observe the events of `tape` again `times` times, the k-th time
    /// with every cycle moved on by k·`period`: the periods a recurring
    /// run skipped (DESIGN.md §5.1).
    fn replay(&mut self, tape: &[TraceEvent], period: u64, times: u64) {
        for shift in (1..=times).map(|k| k * period) {
            for &event in tape {
                let cycle = event.cycle + shift;
                self.event(TraceEvent { cycle, ..event });
            }
        }
    }
}

/// The default observer: observes nothing, costs nothing.
impl Observer for () {}

/// Observers are usually lent to a run and read afterwards.
impl<O: Observer> Observer for &mut O {
    const EVENTS: bool = O::EVENTS;

    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }
    fn replay(&mut self, tape: &[TraceEvent], period: u64, times: u64) {
        (**self).replay(tape, period, times);
    }
}

/// Two observers on one run (e.g. a [`TraceBuffer`] for the Chrome export
/// and a `ProfileBuilder` for aggregation).
impl<A: Observer, B: Observer> Observer for (A, B) {
    const EVENTS: bool = A::EVENTS || B::EVENTS;

    fn event(&mut self, event: TraceEvent) {
        self.0.event(event);
        self.1.event(event);
    }
    fn replay(&mut self, tape: &[TraceEvent], period: u64, times: u64) {
        self.0.replay(tape, period, times);
        self.1.replay(tape, period, times);
    }
}

/// Everything a caller can attach to one
/// [`TimingSim::run`](super::TimingSim::run): the observer, a cooperative
/// cancellation token and the safety cycle limit.
#[derive(Debug)]
pub struct Hooks<'a, O = ()> {
    pub(crate) observer: O,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) cycle_limit: u64,
    pub(crate) skip: Skip,
}

/// Which recurrences a run skips instead of stepping (DESIGN.md §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Skip {
    /// None: every cycle is stepped.
    None,
    /// Exact recurrences of the whole state.
    Exact,
    /// For the report alone: also a finishing loop's periods, modulo
    /// affine slice deltas, together with their stores, which leaves
    /// memory unspecified.
    Affine,
}

/// Default safety limit on simulated cycles.
const DEFAULT_CYCLE_LIMIT: u64 = 200_000_000;

impl Default for Hooks<'_, ()> {
    fn default() -> Self {
        Hooks::observe(())
    }
}

impl<'a, O: Observer> Hooks<'a, O> {
    /// Run under `observer` (pass `&mut o` to read it afterwards), with
    /// no token and the default cycle limit.
    pub fn observe(observer: O) -> Self {
        Hooks {
            observer,
            cancel: None,
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            skip: Skip::Exact,
        }
    }

    /// Poll `token` every
    /// [`CHECK_INTERVAL_CYCLES`](crate::cancel::CHECK_INTERVAL_CYCLES)
    /// simulated cycles (one relaxed atomic load) and abort with
    /// [`SimError::Cancelled`](crate::SimError::Cancelled) carrying the
    /// source that fired and the per-warp scheduling snapshot. The token
    /// is a host-side stop only: one that never fires leaves the run,
    /// recurrence skips included, as it is without one.
    pub fn cancel(mut self, token: Option<&'a CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Abort with [`SimError::StepLimit`](crate::SimError::StepLimit)
    /// once the run passes cycle `limit`, the one deterministic
    /// simulated-cycle stop. A run skips there from an exact recurrence
    /// of its state, replaying one recorded period's events to its
    /// observer.
    /// The SM's pipes count time in integer ticks, up to 192,400 a cycle
    /// on GTX580; a limit past the cycle where those counts reach half of
    /// `u64::MAX` (about 4.8·10¹³ on both GTX580 and GTX680) counts as
    /// that cycle, so every count fits with room for a pipe's lead.
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Step every cycle: skip no recurrence. The reference the recurrence
    /// skip is tested against; it reports what a skipping run reports.
    #[doc(hidden)]
    pub fn step_every_cycle(mut self) -> Self {
        self.skip = Skip::None;
        self
    }
}

/// Default event cap of a [`TraceBuffer`] (~112 MB of events).
pub const DEFAULT_TRACE_LIMIT: usize = 4_000_000;

/// A sink that stores raw events in memory, up to a cap.
///
/// Past the cap further events are counted but dropped, so a runaway
/// kernel cannot exhaust memory; [`TraceBuffer::dropped`] tells consumers
/// the record is incomplete.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    limit: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty buffer with the default cap.
    pub fn new() -> TraceBuffer {
        TraceBuffer::with_limit(DEFAULT_TRACE_LIMIT)
    }

    /// An empty buffer that keeps at most `limit` events.
    pub fn with_limit(limit: usize) -> TraceBuffer {
        TraceBuffer {
            events: Vec::new(),
            limit,
            dropped: 0,
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl Observer for TraceBuffer {
    const EVENTS: bool = true;

    fn event(&mut self, event: TraceEvent) {
        if self.events.len() < self.limit {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
    fn replay(&mut self, tape: &[TraceEvent], period: u64, times: u64) {
        let total = tape.len() as u64 * times;
        let room = (self.limit.saturating_sub(self.events.len()) as u64).min(total);
        for (k, event) in
            (0..room).map(|i| (i / tape.len() as u64 + 1, tape[i as usize % tape.len()]))
        {
            self.events.push(TraceEvent {
                cycle: event.cycle + k * period,
                ..event
            });
        }
        self.dropped += total - room;
    }
}

/// Render a recorded trace as Chrome trace-event JSON.
///
/// Mapping: one process (`pid` 0, the SM); one thread per warp (`tid` =
/// warp slot, named `warp N (sched S)`); issues and stalls are complete
/// (`"ph":"X"`) events one cycle long; barrier releases and warp exits
/// are instant (`"ph":"i"`) events. Timestamps are shader *cycles*, not
/// microseconds — `otherData.unit` records this.
pub fn chrome_trace(buffer: &TraceBuffer, kernel: &Kernel, schedulers: u32) -> String {
    let mut writer = ChromeTraceWriter::default();

    // Thread-name metadata for every warp that appears.
    let mut warps: Vec<u16> = buffer.events.iter().map(|e| e.warp).collect();
    warps.sort_unstable();
    warps.dedup();
    for &w in &warps {
        let sched = u32::from(w) % schedulers.max(1);
        writer.thread_name(u64::from(w), &format!("warp {w} (sched {sched})"));
    }

    for e in &buffer.events {
        let (ts, tid) = (e.cycle, u64::from(e.warp));
        let args = match e.kind {
            TraceEventKind::Issue { lanes, dual } => {
                obj!(e; pc, scheduler, lanes = lanes, dual = dual)
            }
            _ => obj!(e; scheduler),
        };
        match e.kind {
            TraceEventKind::Issue { .. } => {
                let text = kernel.code.get(e.pc as usize).map(|inst| inst.to_string());
                let name = text.unwrap_or_else(|| format!("pc {:#x}", e.pc));
                writer.complete(&name, "issue", ts, 1, tid, args);
            }
            TraceEventKind::Stall(kind) => {
                let name = format!("stall:{}", kind.as_str());
                writer.complete(&name, "stall", ts, 1, tid, args);
            }
            TraceEventKind::BarrierRelease => {
                writer.instant("barrier_release", "barrier", ts, tid, args);
            }
            TraceEventKind::WarpExit => writer.instant("warp_exit", "exit", ts, tid, args),
        }
    }
    let dropped_events = buffer.dropped;
    writer.finish(
        &obj!((); kernel = kernel.name.as_str(), unit = "shader cycles",
        schedulers = schedulers, dropped_events = dropped_events),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, warp: u16, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            scheduler: (warp % 2) as u8,
            warp,
            pc: 0,
            kind,
        }
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        let mut buf = TraceBuffer::with_limit(2);
        for i in 0..5 {
            buf.event(ev(i, 0, TraceEventKind::Stall(StallKind::Scoreboard)));
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    fn pair_feeds_both_observers() {
        let mut a = TraceBuffer::new();
        let mut b = TraceBuffer::new();
        (&mut a, &mut b).event(ev(1, 3, TraceEventKind::WarpExit));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.events()[0], b.events()[0]);
    }

    #[test]
    fn unit_observer_is_disabled() {
        const {
            assert!(!<() as Observer>::EVENTS);
            assert!(TraceBuffer::EVENTS);
            assert!(<((), &mut TraceBuffer) as Observer>::EVENTS);
            assert!(!<((), ()) as Observer>::EVENTS);
        }
    }

    #[test]
    fn chrome_trace_parses_and_passes_its_check() {
        let mut buf = TraceBuffer::new();
        buf.event(ev(
            0,
            0,
            TraceEventKind::Issue {
                lanes: 32,
                dual: false,
            },
        ));
        buf.event(ev(1, 1, TraceEventKind::Stall(StallKind::Pipe)));
        buf.event(ev(2, 0, TraceEventKind::BarrierRelease));
        buf.event(ev(3, 1, TraceEventKind::WarpExit));
        let doc = crate::Json::parse(&chrome_trace(&buf, &Kernel::new("t"), 2)).unwrap();
        let mut errors = Vec::new();
        crate::json::check_chrome_trace(&doc, &mut errors);
        assert_eq!(errors, Vec::<String>::new());
        let events = doc.items("traceEvents").iter();
        let names: Vec<&str> = events.map(|e| e.text("name")).collect();
        assert_eq!(
            names,
            [
                "thread_name",
                "thread_name",
                "pc 0x0",
                "stall:pipe",
                "barrier_release",
                "warp_exit"
            ]
        );
        let other = doc.get("otherData").unwrap();
        assert_eq!(
            (other.text("unit"), other.count("schedulers")),
            ("shader cycles", 2)
        );
    }
}
