//! Streaming aggregation of trace events into a profile.
//!
//! [`ProfileBuilder`] is an [`Observer`] that aggregates in-flight, so a
//! run of any length can be profiled with O(kernel size + warps) memory —
//! unlike [`super::trace::TraceBuffer`], nothing is ever dropped. The
//! finished [`Profile`] holds per-SASS-instruction issue histograms, a
//! per-warp and overall stall-reason breakdown, per-scheduler issue
//! statistics, and an occupancy timeline with adaptive bucketing;
//! [`Profile::to_json`] writes it into a profile document and
//! [`Profile::check`] states what that object promises.

use std::fmt::Write as _;

use peakperf_sass::Kernel;

use crate::json::Json;
use crate::timing::sm::{StallKind, TimingReport};
use crate::timing::trace::{Observer, TraceEvent, TraceEventKind, NO_PC};
use crate::{ensure, obj};

/// Timeline buckets are merged pairwise once the run outgrows this many.
const MAX_TIMELINE_BUCKETS: usize = 128;

/// Per-instruction issue statistics.
#[derive(Debug, Clone, Default)]
pub struct PcStats {
    /// Instruction index in the kernel.
    pub pc: u32,
    /// Disassembly text (filled in by [`ProfileBuilder::finish`]).
    pub text: String,
    /// Warp instructions issued from this pc.
    pub issues: u64,
    /// Of those, how many went through the dual-dispatch slot.
    pub dual: u64,
    /// Sum of active lanes over all issues (for the average).
    pub lanes: u64,
    /// Stall warp-cycles attributed to this pc, by kind.
    pub stalls: [u64; StallKind::COUNT],
}

impl PcStats {
    /// Average active lanes per issue.
    pub fn avg_lanes(&self) -> f64 {
        self.lanes as f64 / self.issues.max(1) as f64
    }

    /// Total stall warp-cycles charged to this pc.
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Per-warp statistics.
#[derive(Debug, Clone, Default)]
pub struct WarpStats {
    /// Warp slot on the SM.
    pub warp: u16,
    /// Scheduler that owns the slot.
    pub scheduler: u8,
    /// Warp instructions issued.
    pub issues: u64,
    /// Cycle the warp exited, if it did.
    pub exit_cycle: Option<u64>,
    /// Barrier releases observed.
    pub barrier_releases: u64,
    /// Stall warp-cycles by kind.
    pub stalls: [u64; StallKind::COUNT],
}

impl WarpStats {
    /// Total stall warp-cycles for this warp.
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Per-scheduler statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Scheduler index.
    pub scheduler: u8,
    /// Warp instructions issued.
    pub issues: u64,
    /// Of those, dual-dispatch issues.
    pub dual: u64,
    /// Stall warp-cycles observed by this scheduler.
    pub stalls: u64,
    /// Cycles on which this scheduler issued at least one instruction.
    pub active_cycles: u64,
}

/// Occupancy timeline: issue/stall counts per fixed-width cycle bucket.
///
/// The bucket width doubles whenever the run outgrows
/// `MAX_TIMELINE_BUCKETS`, so the timeline is always a bounded,
/// power-of-two-granular view regardless of kernel length.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    shift: u32,
    issued: Vec<u64>,
    stalled: Vec<u64>,
}

impl Timeline {
    /// Width of each bucket in shader cycles.
    pub fn bucket_cycles(&self) -> u64 {
        1 << self.shift
    }

    /// Warp instructions issued per bucket.
    pub fn issued(&self) -> &[u64] {
        &self.issued
    }

    /// Stall warp-cycles per bucket.
    pub fn stalled(&self) -> &[u64] {
        &self.stalled
    }

    fn bucket(&mut self, cycle: u64) -> usize {
        let mut idx = (cycle >> self.shift) as usize;
        while idx >= MAX_TIMELINE_BUCKETS {
            Timeline::halve(&mut self.issued);
            Timeline::halve(&mut self.stalled);
            self.shift += 1;
            idx = (cycle >> self.shift) as usize;
        }
        let need = idx + 1;
        if self.issued.len() < need {
            self.issued.resize(need, 0);
            self.stalled.resize(need, 0);
        }
        idx
    }

    fn halve(v: &mut Vec<u64>) {
        let merged: Vec<u64> = v.chunks(2).map(|c| c.iter().sum()).collect();
        *v = merged;
    }
}

/// An [`Observer`] that aggregates events into a [`Profile`] in-flight.
#[derive(Debug)]
pub struct ProfileBuilder {
    per_pc: Vec<PcStats>,
    per_warp: Vec<WarpStats>,
    per_sched: Vec<SchedStats>,
    stall_totals: [u64; StallKind::COUNT],
    timeline: Timeline,
    issues: u64,
    dual_issues: u64,
    last_issue_cycle: Vec<u64>,
    /// The last cycle with an issue on any scheduler, and how many
    /// distinct cycles had one.
    last_busy_cycle: u64,
    busy_cycles: u64,
    events: u64,
}

impl Default for ProfileBuilder {
    fn default() -> ProfileBuilder {
        ProfileBuilder::new()
    }
}

impl ProfileBuilder {
    /// An empty builder.
    pub fn new() -> ProfileBuilder {
        ProfileBuilder {
            per_pc: Vec::new(),
            per_warp: Vec::new(),
            per_sched: Vec::new(),
            stall_totals: [0; StallKind::COUNT],
            timeline: Timeline::default(),
            issues: 0,
            dual_issues: 0,
            last_issue_cycle: Vec::new(),
            last_busy_cycle: u64::MAX,
            busy_cycles: 0,
            events: 0,
        }
    }

    fn pc_mut(&mut self, pc: u32) -> &mut PcStats {
        let idx = pc as usize;
        if self.per_pc.len() <= idx {
            self.per_pc.resize_with(idx + 1, PcStats::default);
        }
        let slot = &mut self.per_pc[idx];
        slot.pc = pc;
        slot
    }

    fn warp_mut(&mut self, warp: u16, scheduler: u8) -> &mut WarpStats {
        let idx = warp as usize;
        if self.per_warp.len() <= idx {
            self.per_warp.resize_with(idx + 1, WarpStats::default);
        }
        let slot = &mut self.per_warp[idx];
        slot.warp = warp;
        slot.scheduler = scheduler;
        slot
    }

    fn sched_mut(&mut self, scheduler: u8) -> &mut SchedStats {
        let idx = scheduler as usize;
        if self.per_sched.len() <= idx {
            self.per_sched.resize_with(idx + 1, SchedStats::default);
        }
        let slot = &mut self.per_sched[idx];
        slot.scheduler = scheduler;
        slot
    }

    /// Finish aggregation, resolving instruction text against `kernel`
    /// and cross-checking against the run's [`TimingReport`].
    pub fn finish(mut self, kernel: &Kernel, report: &TimingReport) -> Profile {
        for stats in &mut self.per_pc {
            stats.text = kernel
                .code
                .get(stats.pc as usize)
                .map(|inst| inst.to_string())
                .unwrap_or_default();
        }
        // Drop trailing all-zero pc slots (pcs never issued nor blamed).
        while self
            .per_pc
            .last()
            .is_some_and(|p| p.issues == 0 && p.stalled() == 0)
        {
            self.per_pc.pop();
        }
        Profile {
            kernel: kernel.name.clone(),
            cycles: report.cycles,
            idle_cycles: report.cycles.saturating_sub(self.busy_cycles),
            warp_instructions: report.warp_instructions,
            thread_instructions: report.thread_instructions,
            issues: self.issues,
            dual_issues: self.dual_issues,
            per_pc: self.per_pc,
            per_warp: self.per_warp,
            per_sched: self.per_sched,
            stall_totals: self.stall_totals,
            timeline: self.timeline,
            events: self.events,
        }
    }
}

impl Observer for ProfileBuilder {
    const EVENTS: bool = true;

    fn event(&mut self, event: TraceEvent) {
        self.events += 1;
        match event.kind {
            TraceEventKind::Issue { lanes, dual } => {
                self.issues += 1;
                if dual {
                    self.dual_issues += 1;
                }
                // Events arrive in cycle order, replayed periods included.
                if self.last_busy_cycle != event.cycle {
                    self.last_busy_cycle = event.cycle;
                    self.busy_cycles += 1;
                }
                if event.pc != NO_PC {
                    let pc = self.pc_mut(event.pc);
                    pc.issues += 1;
                    pc.lanes += u64::from(lanes);
                    if dual {
                        pc.dual += 1;
                    }
                }
                self.warp_mut(event.warp, event.scheduler).issues += 1;
                let sidx = event.scheduler as usize;
                if self.last_issue_cycle.len() <= sidx {
                    self.last_issue_cycle.resize(sidx + 1, u64::MAX);
                }
                let sched = self.sched_mut(event.scheduler);
                sched.issues += 1;
                if dual {
                    sched.dual += 1;
                }
                // Count a cycle active once even under dual dispatch.
                if self.last_issue_cycle[sidx] != event.cycle {
                    self.last_issue_cycle[sidx] = event.cycle;
                    self.sched_mut(event.scheduler).active_cycles += 1;
                }
                let idx = self.timeline.bucket(event.cycle);
                self.timeline.issued[idx] += 1;
            }
            TraceEventKind::Stall(kind) => {
                self.stall_totals[kind.index()] += 1;
                if event.pc != NO_PC {
                    self.pc_mut(event.pc).stalls[kind.index()] += 1;
                }
                self.warp_mut(event.warp, event.scheduler).stalls[kind.index()] += 1;
                self.sched_mut(event.scheduler).stalls += 1;
                let idx = self.timeline.bucket(event.cycle);
                self.timeline.stalled[idx] += 1;
            }
            TraceEventKind::BarrierRelease => {
                self.warp_mut(event.warp, event.scheduler).barrier_releases += 1;
            }
            TraceEventKind::WarpExit => {
                self.warp_mut(event.warp, event.scheduler).exit_cycle = Some(event.cycle);
            }
        }
    }
}

/// A finished profile of one timing run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Kernel name.
    pub kernel: String,
    /// Total shader cycles of the run.
    pub cycles: u64,
    /// Cycles in which no warp issued on any scheduler.
    pub idle_cycles: u64,
    /// Warp instructions issued (from the [`TimingReport`]).
    pub warp_instructions: u64,
    /// Thread instructions issued.
    pub thread_instructions: u64,
    /// Issue events observed by the trace (should equal
    /// `warp_instructions`; the profile keeps both for cross-checking).
    pub issues: u64,
    /// Dual-dispatch issues among them.
    pub dual_issues: u64,
    /// Per-instruction issue histogram, indexed by pc.
    pub per_pc: Vec<PcStats>,
    /// Per-warp statistics, indexed by warp slot.
    pub per_warp: Vec<WarpStats>,
    /// Per-scheduler statistics.
    pub per_sched: Vec<SchedStats>,
    /// Stall warp-cycles by kind, over the whole run.
    pub stall_totals: [u64; StallKind::COUNT],
    /// Occupancy timeline.
    pub timeline: Timeline,
    /// Trace events observed in total.
    pub events: u64,
}

impl Profile {
    /// Total stall warp-cycles across all kinds.
    pub fn stalled_cycles(&self) -> u64 {
        self.stall_totals.iter().sum()
    }

    /// Warp instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.issues as f64 / self.cycles.max(1) as f64
    }

    /// Render the profile as a human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {}  cycles={}  warp_insts={}  ipc={:.3}  dual={}",
            self.kernel,
            self.cycles,
            self.warp_instructions,
            self.ipc(),
            self.dual_issues
        );
        let _ = writeln!(
            out,
            "idle cycles: {} of {} ({:.1}%)",
            self.idle_cycles,
            self.cycles,
            100.0 * self.idle_cycles as f64 / self.cycles.max(1) as f64
        );
        let stalled = self.stalled_cycles();
        let _ = writeln!(out, "stall breakdown (warp-cycles, total {stalled}):");
        for kind in StallKind::ALL {
            let n = self.stall_totals[kind.index()];
            if n == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>12}  {:>6.2}%",
                kind.as_str(),
                n,
                100.0 * n as f64 / stalled.max(1) as f64
            );
        }
        let _ = writeln!(out, "per-instruction issue histogram:");
        let _ = writeln!(
            out,
            "  {:>4} {:>10} {:>8} {:>6}  {:<14} instruction",
            "pc", "issues", "stalled", "lanes", "top-stall"
        );
        for p in &self.per_pc {
            if p.issues == 0 && p.stalled() == 0 {
                continue;
            }
            let top = StallKind::ALL
                .into_iter()
                .max_by_key(|k| p.stalls[k.index()])
                .filter(|k| p.stalls[k.index()] > 0)
                .map(|k| k.as_str())
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "  {:>4} {:>10} {:>8} {:>6.1}  {:<14} {}",
                p.pc,
                p.issues,
                p.stalled(),
                p.avg_lanes(),
                top,
                p.text
            );
        }
        let _ = writeln!(out, "per-scheduler:");
        for s in &self.per_sched {
            let _ = writeln!(
                out,
                "  sched {}  issues={:<10} dual={:<8} stalls={:<10} active={:.1}%",
                s.scheduler,
                s.issues,
                s.dual,
                s.stalls,
                100.0 * s.active_cycles as f64 / self.cycles.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "occupancy timeline (bucket = {} cycles, issued warp-insts per bucket):",
            self.timeline.bucket_cycles()
        );
        out.push_str("  ");
        let peak = self.timeline.issued().iter().copied().max().unwrap_or(0);
        const RAMP: &[u8] = b" .:-=+*#%@";
        for &n in self.timeline.issued() {
            let level = if peak == 0 {
                0
            } else {
                ((n * (RAMP.len() as u64 - 1)).div_ceil(peak)) as usize
            };
            out.push(RAMP[level.min(RAMP.len() - 1)] as char);
        }
        out.push('\n');
        out
    }

    /// The profile as a JSON object: the `profile` member of each entry of
    /// a `peakperf-profile-v1` document.
    pub fn to_json(&self) -> Json {
        let touched = self
            .per_pc
            .iter()
            .filter(|p| p.issues != 0 || p.stalled() != 0);
        let per_pc = touched.map(|p| {
            obj!(p; pc, text, issues, dual, avg_lanes = Json::fixed(p.avg_lanes(), 2),
                stalled = p.stalled())
        });
        let per_warp = self.per_warp.iter().map(|w| {
            obj!(w; warp, scheduler, issues, stalled = w.stalled(), barrier_releases, exit_cycle)
        });
        let per_scheduler = self.per_sched.iter();
        let per_scheduler =
            per_scheduler.map(|s| obj!(s; scheduler, issues, dual, stalls, active_cycles));
        let line = &self.timeline;
        let timeline = obj!((); bucket_cycles = line.bucket_cycles(),
            issued = line.issued().iter().copied().collect::<Json>(),
            stalled = line.stalled().iter().copied().collect::<Json>());
        obj!(self; kernel, cycles, idle_cycles, warp_instructions, thread_instructions, issues,
            dual_issues,
            stalled_cycles = self.stalled_cycles(),
            stall_totals = stall_kinds_json(&self.stall_totals),
            per_pc = per_pc.collect::<Json>(),
            per_warp = per_warp.collect::<Json>(),
            per_scheduler = per_scheduler.collect::<Json>(),
            timeline = timeline)
    }

    /// The invariants of one object written by [`Profile::to_json`]
    /// (called `at` in the messages): no more idle cycles than cycles, and
    /// one stall total per [`StallKind`], in order, together summing to
    /// `stalled_cycles`.
    pub fn check(body: &Json, at: &str, errors: &mut Vec<String>) {
        let (idle, cycles) = (body.count("idle_cycles"), body.count("cycles"));
        ensure!(
            errors,
            idle <= cycles,
            "{at}: idle_cycles {idle} exceed cycles {cycles}"
        );
        let totals = &body["stall_totals"];
        check_stall_kinds(totals, &format!("{at}.stall_totals"), errors);
        let members = totals.as_obj().unwrap_or(&[]).iter();
        let sum: u64 = members.filter_map(|(_, v)| v.as_u64()).sum();
        let stalled = body.count("stalled_cycles");
        ensure!(
            errors,
            sum == stalled,
            "{at}: stall_totals sum {sum} != stalled_cycles {stalled}"
        );
    }
}

/// One value per [`StallKind`], keyed by name in [`StallKind::ALL`] order:
/// the shape of every per-kind object in the documents.
pub fn stall_kinds_json<T: Copy + Into<Json>>(values: &[T; StallKind::COUNT]) -> Json {
    Json::obj(StallKind::ALL.map(|k| (k.as_str(), values[k.index()].into())))
}

/// Check that `obj`'s keys are exactly the [`StallKind`] names, in order.
pub fn check_stall_kinds(obj: &Json, at: &str, errors: &mut Vec<String>) {
    let (keys, kinds) = (obj.keys(), StallKind::ALL.map(StallKind::as_str));
    ensure!(
        errors,
        keys == kinds,
        "{at}: keys {keys:?} are not the stall kinds {kinds:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, sched: u8, warp: u16, pc: u32, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            scheduler: sched,
            warp,
            pc,
            kind,
        }
    }

    #[test]
    fn aggregates_issues_and_stalls() {
        let mut b = ProfileBuilder::new();
        b.event(ev(
            0,
            0,
            0,
            0,
            TraceEventKind::Issue {
                lanes: 32,
                dual: false,
            },
        ));
        b.event(ev(
            0,
            0,
            0,
            1,
            TraceEventKind::Issue {
                lanes: 32,
                dual: true,
            },
        ));
        b.event(ev(1, 1, 1, 0, TraceEventKind::Stall(StallKind::Scoreboard)));
        b.event(ev(1, 1, 1, 0, TraceEventKind::Stall(StallKind::Scoreboard)));
        b.event(ev(
            2,
            1,
            1,
            NO_PC,
            TraceEventKind::Stall(StallKind::Barrier),
        ));
        b.event(ev(3, 1, 1, 5, TraceEventKind::WarpExit));
        assert_eq!(b.issues, 2);
        assert_eq!(b.dual_issues, 1);
        assert_eq!(b.stall_totals[StallKind::Scoreboard.index()], 2);
        assert_eq!(b.stall_totals[StallKind::Barrier.index()], 1);
        assert_eq!(b.per_warp[1].stalled(), 3);
        assert_eq!(b.per_warp[1].exit_cycle, Some(3));
        assert_eq!(b.per_sched[0].issues, 2);
        assert_eq!(b.per_sched[0].active_cycles, 1);
        assert_eq!(b.per_sched[1].stalls, 3);
        // NO_PC stalls count toward totals but are not blamed on a pc.
        let pc_stalled: u64 = b.per_pc.iter().map(PcStats::stalled).sum();
        assert_eq!(pc_stalled, 2);
    }

    #[test]
    fn cycles_without_an_issue_are_idle() {
        let issue = |cycle, sched, dual| {
            let kind = TraceEventKind::Issue { lanes: 32, dual };
            ev(cycle, sched, 0, 0, kind)
        };
        let stall = |cycle| ev(cycle, 0, 1, 0, TraceEventKind::Stall(StallKind::Scoreboard));
        let mut b = ProfileBuilder::new();
        // Cycle 0: two schedulers issue, one of them twice (busy once).
        b.event(issue(0, 0, false));
        b.event(issue(0, 0, true));
        b.event(issue(0, 1, false));
        // Cycles 1-3: stalls only; cycle 4 busy; cycles 5-6 no event.
        (1..=3).for_each(|c| b.event(stall(c)));
        b.event(issue(4, 1, false));
        let report = TimingReport {
            cycles: 7,
            ..TimingReport::default()
        };
        let profile = b.finish(&Kernel::new("k"), &report);
        assert_eq!(profile.idle_cycles, 5);
        let text = profile.render_text();
        assert!(text.contains("idle cycles: 5 of 7 (71.4%)"), "{text}");
    }

    #[test]
    fn timeline_buckets_merge_past_cap() {
        let mut t = Timeline::default();
        for c in 0..1000u64 {
            let idx = t.bucket(c);
            t.issued[idx] += 1;
        }
        assert!(t.issued().len() <= MAX_TIMELINE_BUCKETS);
        assert!(t.bucket_cycles() >= 8);
        assert_eq!(t.issued().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn json_round_trips_and_passes_its_check() {
        let mut b = ProfileBuilder::new();
        for c in 0..40u64 {
            b.event(ev(
                c,
                (c % 2) as u8,
                (c % 4) as u16,
                (c % 8) as u32,
                if c % 3 == 0 {
                    TraceEventKind::Stall(StallKind::Pipe)
                } else {
                    TraceEventKind::Issue {
                        lanes: 32,
                        dual: false,
                    }
                },
            ));
        }
        let kernel = Kernel::new("k");
        let report = TimingReport {
            cycles: 40,
            warp_instructions: b.issues,
            thread_instructions: b.issues * 32,
            flops: 0,
            mix: Default::default(),
            stalls: Default::default(),
            lds_conflict_cycles: 0,
            global_transactions: 0,
            global_bytes: 0,
            hazard_replays: 0,
        };
        let profile = b.finish(&kernel, &report);
        let json = profile.to_json();
        assert_eq!(Json::parse(&json.pretty()).unwrap(), json);
        let mut errors = Vec::new();
        json.conforms(&Profile::default().to_json(), &"profile", &mut errors);
        Profile::check(&json, "profile", &mut errors);
        assert_eq!(errors, Vec::<String>::new());
        assert_eq!(json.items("per_pc").len(), 8);
        let per_warp: u64 = profile.per_warp.iter().map(WarpStats::stalled).sum();
        assert_eq!(per_warp, profile.stalled_cycles());
        let text = profile.render_text();
        assert!(text.contains("stall breakdown"));
        assert!(text.contains("per-scheduler"));
    }
}
