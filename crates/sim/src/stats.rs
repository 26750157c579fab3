//! Execution statistics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use peakperf_sass::Instruction;

use crate::json::Json;
use crate::obj;
use crate::timing::profile::stall_kinds_json;
use crate::timing::StallKind;

// ---------------------------------------------------------------------
// Process-wide simulation counters
// ---------------------------------------------------------------------

static TIMING_RUNS: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);
static SIM_WARP_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static STALL_CYCLES: [AtomicU64; StallKind::COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// A monotonic snapshot of the process-wide simulation counters.
///
/// The counters only ever grow; observability layers (e.g. the `reproduce`
/// binary's JSON report) take a snapshot before and after a unit of work
/// and report the difference via [`Counters::delta_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Completed cycle-level timing runs (cache hits not included).
    pub timing_runs: u64,
    /// Total simulated shader cycles across those runs.
    pub sim_cycles: u64,
    /// Total warp instructions issued across those runs.
    pub warp_instructions: u64,
    /// Timing-cache hits (runs answered without simulating).
    pub cache_hits: u64,
    /// Timing-cache misses (lookups that had to simulate).
    pub cache_misses: u64,
    /// Stall warp-cycles by cause, indexed by [`StallKind::index`].
    pub stall_cycles: [u64; StallKind::COUNT],
}

impl Counters {
    /// Current values of the process-wide counters.
    pub fn snapshot() -> Counters {
        let mut stall_cycles = [0u64; StallKind::COUNT];
        for (slot, counter) in stall_cycles.iter_mut().zip(STALL_CYCLES.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        Counters {
            timing_runs: TIMING_RUNS.load(Ordering::Relaxed),
            sim_cycles: SIM_CYCLES.load(Ordering::Relaxed),
            warp_instructions: SIM_WARP_INSTRUCTIONS.load(Ordering::Relaxed),
            cache_hits: CACHE_HITS.load(Ordering::Relaxed),
            cache_misses: CACHE_MISSES.load(Ordering::Relaxed),
            stall_cycles,
        }
    }

    /// Counter growth since an earlier snapshot.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        let mut stall_cycles = [0u64; StallKind::COUNT];
        for (i, slot) in stall_cycles.iter_mut().enumerate() {
            *slot = self.stall_cycles[i] - earlier.stall_cycles[i];
        }
        Counters {
            timing_runs: self.timing_runs - earlier.timing_runs,
            sim_cycles: self.sim_cycles - earlier.sim_cycles,
            warp_instructions: self.warp_instructions - earlier.warp_instructions,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            stall_cycles,
        }
    }

    /// Total stall warp-cycles across all kinds.
    pub fn stalled_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Add another counter record into this one.
    pub fn accumulate(&mut self, other: &Counters) {
        self.timing_runs += other.timing_runs;
        self.sim_cycles += other.sim_cycles;
        self.warp_instructions += other.warp_instructions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        for (slot, n) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *slot += n;
        }
    }

    /// The counters as a JSON object: `counters` / `totals` in the perf
    /// and bench documents.
    pub fn to_json(&self) -> Json {
        obj!(self; timing_runs, sim_cycles, warp_instructions, cache_hits, cache_misses,
            stall_cycles = stall_kinds_json(&self.stall_cycles))
    }
}

// ---------------------------------------------------------------------
// Per-run counter scopes
// ---------------------------------------------------------------------

// The process-wide counters above are shared by every thread, so two
// experiments running concurrently on the parallel executor interleave
// their cache-hit/run counts and neither can be attributed. Counter
// scopes solve attribution without giving up the global view: every
// `record_*` call *also* adds to each scope active on the calling thread,
// and [`with_counter_scope`] hands the accumulated delta back to the
// caller. Scopes nest (an inner scope's work counts toward the outer one
// too) and are strictly thread-local: work a closure hands to *other*
// threads is only visible to their own scopes, which is exactly the
// executor-boundary contract of `peakperf-bench::exec` — one job runs
// entirely on one worker thread.
thread_local! {
    static SCOPES: RefCell<Vec<Counters>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` and return its result together with the simulation-counter
/// growth produced *by the calling thread* while `f` ran.
///
/// Unlike a global [`Counters::snapshot`]/[`Counters::delta_since`] pair,
/// the delta is unaffected by concurrent work on other threads, so
/// per-experiment cache-hit/miss and run counts stay attributable under
/// the parallel executor. The process-global counters are updated as
/// before.
pub fn with_counter_scope<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    SCOPES.with(|s| s.borrow_mut().push(Counters::default()));
    // Pop the scope even if `f` unwinds, so a caught panic (the harness
    // runs experiments under `catch_unwind`) cannot leave a stale frame
    // that would misattribute later work on this thread.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let guard = PopOnDrop;
    let value = f();
    let delta = SCOPES.with(|s| s.borrow().last().copied().unwrap_or_default());
    drop(guard);
    (value, delta)
}

fn scope_record(f: impl Fn(&mut Counters)) {
    SCOPES.with(|s| {
        for frame in s.borrow_mut().iter_mut() {
            f(frame);
        }
    });
}

pub(crate) fn record_timing_run(report: &crate::timing::TimingReport) {
    TIMING_RUNS.fetch_add(1, Ordering::Relaxed);
    SIM_CYCLES.fetch_add(report.cycles, Ordering::Relaxed);
    SIM_WARP_INSTRUCTIONS.fetch_add(report.warp_instructions, Ordering::Relaxed);
    for (&kind, &n) in &report.stalls {
        STALL_CYCLES[kind.index()].fetch_add(n, Ordering::Relaxed);
    }
    scope_record(|c| {
        c.timing_runs += 1;
        c.sim_cycles += report.cycles;
        c.warp_instructions += report.warp_instructions;
        for (&kind, &n) in &report.stalls {
            c.stall_cycles[kind.index()] += n;
        }
    });
}

pub(crate) fn record_cache_hit() {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    scope_record(|c| c.cache_hits += 1);
}

pub(crate) fn record_cache_miss() {
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    scope_record(|c| c.cache_misses += 1);
}

/// Instruction-mix counters, keyed by mnemonic.
///
/// The paper reports, e.g., that 80.5% of executed instructions in the
/// 1024×1024 SGEMM are FFMA and 13.4% LDS.64 (Section 4); this type
/// produces those numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstMix {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl InstMix {
    /// An empty mix.
    pub fn new() -> InstMix {
        InstMix::default()
    }

    /// Record `n` executions of `inst` (none leaves the mix as it was: a
    /// mnemonic that never executed has no entry).
    pub fn record(&mut self, inst: &Instruction, n: u64) {
        if n > 0 {
            let mnemonic = inst.op.mnemonic();
            match self.counts.get_mut(mnemonic) {
                Some(count) => *count += n,
                None => {
                    self.counts.insert(mnemonic.to_owned(), n);
                }
            }
            self.total += n;
        }
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for one mnemonic (exact match).
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Sum of counts over mnemonics starting with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(m, _)| m.starts_with(prefix))
            .map(|(_, &c)| c)
            .sum()
    }

    /// Fraction (0..=1) of instructions whose mnemonic starts with `prefix`.
    pub fn fraction_prefix(&self, prefix: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_prefix(prefix) as f64 / self.total as f64
        }
    }

    /// Iterate over `(mnemonic, count)` in lexical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(m, &c)| (m.as_str(), c))
    }
}

impl fmt::Display for InstMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (m, c) in self.iter() {
            writeln!(
                f,
                "{m:<12} {c:>12} ({:5.1}%)",
                100.0 * c as f64 / self.total.max(1) as f64
            )?;
        }
        Ok(())
    }
}

/// Statistics from a functional launch.
#[derive(Debug, Clone, Default)]
pub struct FuncStats {
    /// Warp instructions executed, by mnemonic.
    pub mix: InstMix,
    /// Thread instructions executed (warp instructions weighted by the
    /// number of active lanes).
    pub thread_instructions: u64,
    /// Warp instructions executed.
    pub warp_instructions: u64,
    /// FP32 floating-point operations performed (FFMA counts 2).
    pub flops: u64,
}

impl FuncStats {
    /// Record `warps` executions of `inst` with `lanes` active lanes in
    /// total.
    pub fn record(&mut self, inst: &Instruction, warps: u64, lanes: u64) {
        self.mix.record(inst, warps);
        self.warp_instructions += warps;
        self.thread_instructions += lanes;
        self.flops += lanes * inst.op.info().flops;
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &FuncStats) {
        for (m, c) in other.mix.counts.iter() {
            *self.mix.counts.entry(m.clone()).or_insert(0) += c;
        }
        self.mix.total += other.mix.total;
        self.thread_instructions += other.thread_instructions;
        self.warp_instructions += other.warp_instructions;
        self.flops += other.flops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peakperf_sass::{Op, Operand, Reg};

    fn ffma() -> Instruction {
        Instruction::new(Op::Ffma {
            dst: Reg::r(0),
            a: Reg::r(1),
            b: Operand::reg(2),
            c: Reg::r(0),
        })
    }

    fn lds64() -> Instruction {
        Instruction::new(Op::Ld {
            space: peakperf_sass::MemSpace::Shared,
            width: peakperf_sass::MemWidth::B64,
            dst: Reg::r(4),
            addr: Reg::r(6),
            offset: 0,
        })
    }

    #[test]
    fn mix_fractions() {
        let mut s = FuncStats::default();
        for _ in 0..6 {
            s.record(&ffma(), 1, 32);
        }
        s.record(&lds64(), 1, 32);
        assert_eq!(s.mix.count("FFMA"), 6);
        assert_eq!(s.mix.count("LDS.64"), 1);
        assert!((s.mix.fraction_prefix("FFMA") - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.flops, 6 * 32 * 2);
        assert_eq!(s.thread_instructions, 7 * 32);
    }

    #[test]
    fn prefix_counts_cover_widths() {
        let mut m = InstMix::new();
        m.record(&lds64(), 3);
        assert_eq!(m.count_prefix("LDS"), 3);
        assert_eq!(m.count("LDS"), 0);
    }

    #[test]
    fn counter_scopes_attribute_per_thread_and_nest() {
        let ((), outer) = with_counter_scope(|| {
            record_cache_hit();
            let ((), inner) = with_counter_scope(|| {
                record_cache_miss();
                // Work on another thread is attributed to that thread's
                // scopes (none here), not to ours.
                std::thread::scope(|s| {
                    s.spawn(record_cache_hit);
                });
            });
            assert_eq!(inner.cache_misses, 1);
            assert_eq!(inner.cache_hits, 0);
        });
        // The outer scope saw its own hit plus the nested scope's miss,
        // but not the other thread's hit.
        assert_eq!(outer.cache_hits, 1);
        assert_eq!(outer.cache_misses, 1);
    }

    #[test]
    fn counter_scope_pops_on_unwind() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| {
            let _ = with_counter_scope(|| panic!("boom"));
        });
        std::panic::set_hook(hook);
        assert!(caught.is_err());
        // No stale frame: later work on this thread is not attributed to
        // the unwound scope (a stale frame would double-count into it).
        let ((), delta) = with_counter_scope(record_cache_hit);
        assert_eq!(delta.cache_hits, 1);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = Counters {
            timing_runs: 1,
            sim_cycles: 10,
            ..Counters::default()
        };
        let mut b = Counters::default();
        b.stall_cycles[0] = 4;
        b.cache_hits = 2;
        a.accumulate(&b);
        assert_eq!(a.timing_runs, 1);
        assert_eq!(a.stall_cycles[0], 4);
        assert_eq!(a.cache_hits, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FuncStats::default();
        a.record(&ffma(), 1, 32);
        let mut b = FuncStats::default();
        b.record(&ffma(), 1, 16);
        a.merge(&b);
        assert_eq!(a.mix.count("FFMA"), 2);
        assert_eq!(a.flops, 2 * 32 + 2 * 16);
    }
}
