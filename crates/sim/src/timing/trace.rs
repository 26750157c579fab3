//! Cycle-level event tracing for the timing simulator, and the single
//! [`Observer`] trait every instrument of a run implements.
//!
//! The simulator's scheduler loop emits one [`TraceEvent`] per issue
//! attempt outcome — an instruction issued (primary or dual dispatch
//! slot), a runnable warp blocked with a [`StallKind`], a barrier
//! released, a warp exited. The in-tree observers are [`TraceBuffer`]
//! (records raw events, for the Chrome trace export),
//! [`super::profile::ProfileBuilder`] (aggregates in-flight, for
//! arbitrarily long runs) and [`crate::perfmon::HostProf`] (host wall
//! time per loop phase).
//!
//! # Overhead guarantee
//!
//! Observing must never perturb timing and must cost nothing when unused:
//! every emission site and clock read is behind one of [`Observer`]'s two
//! constants, both `false` for `()`, and nothing an observer returns
//! feeds back into the simulation — any observer leaves every
//! [`TimingReport`](super::TimingReport) field unchanged (asserted by
//! `tests/observer_identity.rs`).

use std::fmt::Write as _;

use peakperf_sass::Kernel;

use crate::cancel::CancelToken;
use crate::perfmon::{Phase, Stopwatch};
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

/// The one observer of a [`TimingSim`](super::TimingSim) run: scheduler
/// events for trace consumers, host wall-time attribution for profilers
/// of the simulator itself, or both.
///
/// Implementations must be pure observers: nothing they record may feed
/// back into the simulation. The two constants gate the simulator's
/// emission sites at compile time — `if O::EVENTS` around every
/// [`Observer::event`], `if O::HOST_TIMING` around every clock read — so
/// the `()` instantiation is exactly the uninstrumented loop.
pub trait Observer {
    /// Whether [`Observer::event`] should be called at all.
    const EVENTS: bool = false;
    /// Whether the loop should read the host clock and call
    /// [`Observer::phase`], [`Observer::cycle_end`] and
    /// [`Observer::finish`].
    const HOST_TIMING: bool = false;

    /// Observe one scheduler event.
    fn event(&mut self, _event: TraceEvent) {}
    /// Add `nanos` of host wall time to a leaf `phase`.
    fn phase(&mut self, _phase: Phase, _nanos: u64) {}
    /// The simulator finished `cycle` and is about to advance.
    fn cycle_end(&mut self, _cycle: u64) {}
    /// The run completed: `cycles` simulated in `wall_nanos` of host time.
    fn finish(&mut self, _cycles: u64, _wall_nanos: u64) {}
}

/// The default observer: observes nothing, costs nothing.
impl Observer for () {}

/// Observers are usually lent to a run and read afterwards.
impl<O: Observer> Observer for &mut O {
    const EVENTS: bool = O::EVENTS;
    const HOST_TIMING: bool = O::HOST_TIMING;

    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }
    fn phase(&mut self, phase: Phase, nanos: u64) {
        (**self).phase(phase, nanos);
    }
    fn cycle_end(&mut self, cycle: u64) {
        (**self).cycle_end(cycle);
    }
    fn finish(&mut self, cycles: u64, wall_nanos: u64) {
        (**self).finish(cycles, wall_nanos);
    }
}

/// Two observers on one run (e.g. a [`TraceBuffer`] for the Chrome export
/// and a `ProfileBuilder` for aggregation). A pair is also where a trace
/// consumer can meet a host profiler, so it is where event delivery is
/// priced: each side's `event` is timed on the other side's clock and
/// charged to [`Phase::TraceEmit`]. A lone profiler therefore reports a
/// zero `trace_emit` share by construction.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const EVENTS: bool = A::EVENTS || B::EVENTS;
    const HOST_TIMING: bool = A::HOST_TIMING || B::HOST_TIMING;

    fn event(&mut self, event: TraceEvent) {
        if A::EVENTS {
            let sw = Stopwatch::start::<B>();
            self.0.event(event);
            sw.stop(&mut self.1, Phase::TraceEmit);
        }
        if B::EVENTS {
            let sw = Stopwatch::start::<A>();
            self.1.event(event);
            sw.stop(&mut self.0, Phase::TraceEmit);
        }
    }
    fn phase(&mut self, phase: Phase, nanos: u64) {
        self.0.phase(phase, nanos);
        self.1.phase(phase, nanos);
    }
    fn cycle_end(&mut self, cycle: u64) {
        self.0.cycle_end(cycle);
        self.1.cycle_end(cycle);
    }
    fn finish(&mut self, cycles: u64, wall_nanos: u64) {
        self.0.finish(cycles, wall_nanos);
        self.1.finish(cycles, wall_nanos);
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
        }
    }

    /// Poll `token` every
    /// [`CHECK_INTERVAL_CYCLES`](crate::cancel::CHECK_INTERVAL_CYCLES)
    /// simulated cycles (one relaxed atomic load) and abort with
    /// [`SimError::Cancelled`](crate::SimError::Cancelled) /
    /// [`SimError::DeadlineExceeded`](crate::SimError::DeadlineExceeded)
    /// carrying the per-warp scheduling snapshot. A token that never
    /// fires leaves the run cycle-identical (the poll is a pure observer).
    pub fn cancel(mut self, token: Option<&'a CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Abort with [`SimError::StepLimit`](crate::SimError::StepLimit)
    /// once more than `limit` cycles have been simulated.
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
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
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Incremental writer for Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load).
///
/// Shared between the simulator's cycle-level export ([`chrome_trace`])
/// and the service journal's job-level export in `peakperf-bench`: both
/// produce one `traceEvents` array of metadata / complete / instant /
/// counter records plus an `otherData` trailer, and this writer owns the
/// separators, indentation and escaping so the two exports cannot drift
/// apart in shape.
#[derive(Debug)]
pub struct ChromeTraceWriter {
    out: String,
    first: bool,
}

impl Default for ChromeTraceWriter {
    fn default() -> ChromeTraceWriter {
        ChromeTraceWriter::new()
    }
}

impl ChromeTraceWriter {
    /// A writer with the `traceEvents` array opened.
    pub fn new() -> ChromeTraceWriter {
        ChromeTraceWriter {
            out: "{\n  \"traceEvents\": [\n".to_owned(),
            first: true,
        }
    }

    /// Append one pre-rendered event object (no surrounding separators).
    pub fn raw_event(&mut self, line: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("    ");
        self.out.push_str(line);
    }

    /// A `thread_name` metadata record naming track `tid` of `pid`.
    pub fn thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.raw_event(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }

    /// A complete (`"ph":"X"`) event spanning `[ts, ts+dur]` on one track.
    /// `args` is a pre-rendered JSON object (pass `"{}"` for none).
    pub fn complete(&mut self, name: &str, cat: &str, ts: u64, dur: u64, tid: u64, args: &str) {
        self.raw_event(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\
             \"cat\":\"{cat}\",\"args\":{args}}}",
            json_string(name)
        ));
    }

    /// A thread-scoped instant (`"ph":"i"`) event.
    pub fn instant(&mut self, name: &str, cat: &str, ts: u64, tid: u64, args: &str) {
        self.raw_event(&format!(
            "{{\"name\":{},\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
             \"cat\":\"{cat}\",\"args\":{args}}}",
            json_string(name)
        ));
    }

    /// A counter (`"ph":"C"`) sample — Perfetto renders these as a value
    /// track (e.g. queue depth over time).
    pub fn counter(&mut self, name: &str, ts: u64, value: u64) {
        self.raw_event(&format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\
             \"cat\":\"counter\",\"args\":{{\"value\":{value}}}}}",
            json_string(name)
        ));
    }

    /// Close the array, append `displayTimeUnit` and the `otherData`
    /// trailer (`other` values are pre-rendered JSON), and return the
    /// finished document.
    pub fn finish(mut self, other: &[(&str, String)]) -> String {
        self.out.push_str("\n  ],\n");
        self.out
            .push_str("  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n");
        for (i, (name, value)) in other.iter().enumerate() {
            let _ = write!(self.out, "    \"{name}\": {value}");
            self.out
                .push_str(if i + 1 < other.len() { ",\n" } else { "\n" });
        }
        self.out.push_str("  }\n}\n");
        self.out
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
    let mut writer = ChromeTraceWriter::new();

    // Thread-name metadata for every warp that appears.
    let mut warps: Vec<u16> = buffer.events.iter().map(|e| e.warp).collect();
    warps.sort_unstable();
    warps.dedup();
    for &w in &warps {
        let sched = u32::from(w) % schedulers.max(1);
        writer.thread_name(0, u64::from(w), &format!("warp {w} (sched {sched})"));
    }

    for e in &buffer.events {
        let name = match e.kind {
            TraceEventKind::Issue { .. } => kernel
                .code
                .get(e.pc as usize)
                .map(|inst| inst.to_string())
                .unwrap_or_else(|| format!("pc {:#x}", e.pc)),
            TraceEventKind::Stall(kind) => format!("stall:{}", kind.as_str()),
            TraceEventKind::BarrierRelease => "barrier_release".to_owned(),
            TraceEventKind::WarpExit => "warp_exit".to_owned(),
        };
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"name\":{},\"ph\":\"{}\",\"ts\":{},",
            json_string(&name),
            match e.kind {
                TraceEventKind::Issue { .. } | TraceEventKind::Stall(_) => "X",
                TraceEventKind::BarrierRelease | TraceEventKind::WarpExit => "i",
            },
            e.cycle
        );
        if matches!(
            e.kind,
            TraceEventKind::Issue { .. } | TraceEventKind::Stall(_)
        ) {
            line.push_str("\"dur\":1,");
        }
        if matches!(
            e.kind,
            TraceEventKind::BarrierRelease | TraceEventKind::WarpExit
        ) {
            line.push_str("\"s\":\"t\",");
        }
        let _ = write!(line, "\"pid\":0,\"tid\":{},", e.warp);
        let cat = match e.kind {
            TraceEventKind::Issue { .. } => "issue",
            TraceEventKind::Stall(_) => "stall",
            TraceEventKind::BarrierRelease => "barrier",
            TraceEventKind::WarpExit => "exit",
        };
        let _ = write!(line, "\"cat\":\"{cat}\",");
        match e.kind {
            TraceEventKind::Issue { lanes, dual } => {
                let _ = write!(
                    line,
                    "\"args\":{{\"pc\":{},\"scheduler\":{},\"lanes\":{lanes},\"dual\":{dual}}}}}",
                    e.pc, e.scheduler
                );
            }
            _ => {
                let _ = write!(line, "\"args\":{{\"scheduler\":{}}}}}", e.scheduler);
            }
        }
        writer.raw_event(&line);
    }
    writer.finish(&[
        ("kernel", json_string(&kernel.name)),
        ("unit", "\"shader cycles\"".to_owned()),
        ("schedulers", schedulers.to_string()),
        ("dropped_events", buffer.dropped.to_string()),
    ])
}

/// Escape a string per RFC 8259.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn pair_prices_event_delivery_on_the_profiler_side() {
        use crate::perfmon::HostProf;
        let mut buf = TraceBuffer::new();
        let mut prof = HostProf::new();
        let mut pair = (&mut buf, &mut prof);
        for i in 0..1000 {
            pair.event(ev(i, 0, TraceEventKind::Stall(StallKind::Pipe)));
        }
        assert_eq!(buf.len(), 1000);
        assert!(prof.phase_nanos(Phase::TraceEmit) > 0);
        // A lone profiler pays nothing for its own bookkeeping.
        let mut alone = HostProf::new();
        alone.event(ev(0, 0, TraceEventKind::Stall(StallKind::Pipe)));
        assert_eq!(alone.phase_nanos(Phase::TraceEmit), 0);
    }

    #[test]
    fn unit_observer_is_disabled() {
        const {
            assert!(!<() as Observer>::EVENTS && !<() as Observer>::HOST_TIMING);
            assert!(TraceBuffer::EVENTS && !TraceBuffer::HOST_TIMING);
            assert!(<((), &mut TraceBuffer) as Observer>::EVENTS);
            assert!(!<((), ()) as Observer>::EVENTS);
        }
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
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
        let kernel = Kernel::new("t");
        let json = chrome_trace(&buf, &kernel, 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("stall:pipe"));
        assert!(json.contains("warp_exit"));
        assert!(json.contains("\"unit\": \"shader cycles\""));
    }
}
