//! A memoization cache for timing runs.
//!
//! A [`TimingSim`] run is a pure function of its inputs (GPU
//! configuration, kernel, launch configuration, parameter values,
//! resident-block count), so the experiment drivers, which re-time
//! identical kernels across figures (fig5's SGEMM points are asked for
//! again by fig6, fig7 and `achieved`), can be answered from memory.
//!
//! The cache is **opt-in** (see [`enable_global`]) because a hit skips the
//! functional execution entirely, including its writes to global memory.
//! `reproduce` enables it for its experiments, which discard the memory
//! after timing; every other mode (`bench`, `profile`, `fuzz`, `serve`)
//! leaves it off and always simulates. Either way [`run_cached`]
//! is a timing-only run: a simulated one skips the steady-state periods of
//! a finishing loop with their stores (DESIGN.md §5.1), so memory
//! afterwards is unspecified. Code that inspects memory afterwards calls
//! [`TimingSim::run`].
//!
//! Keys are 128-bit [FNV-1a] hashes over the `Debug` rendering of the
//! inputs plus the raw parameter words: 128 bits make a collision among the
//! few thousand distinct runs of an experiment suite negligible.
//!
//! Keys omit the contents of global memory. A report does not depend on
//! them: simulated time never reads operand values, which
//! `tests/determinism.rs::timing_does_not_read_operand_values` checks for
//! every SGEMM preset and variant on both GPUs.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use peakperf_arch::GpuConfig;
use peakperf_sass::Kernel;

use crate::timing::sm::{TimingReport, TimingSim};
use crate::timing::trace::Hooks;
use crate::{GlobalMemory, LaunchConfig, SimError};

// ---------------------------------------------------------------------
// Key hashing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent 64-bit FNV-1a streams (different offset bases) giving a
/// 128-bit digest — collision-safe for the few thousand distinct runs an
/// experiment suite produces.
struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128 {
            lo: FNV_OFFSET,
            // A second, distinct basis: FNV-1a of the tag byte `1`.
            hi: (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b.wrapping_add(0x9e))).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// The cache key of one timing run.
pub(crate) fn run_key(
    gpu: &GpuConfig,
    kernel: &Kernel,
    config: LaunchConfig,
    params: &[u32],
    resident_blocks: u32,
) -> u128 {
    let mut h = Fnv128::new();
    // `Debug` renderings cover every field, including the instruction
    // stream and control notation; a separator guards against ambiguous
    // concatenation.
    h.write(format!("{gpu:?}").as_bytes());
    h.write(b"\x1f");
    h.write(format!("{kernel:?}").as_bytes());
    h.write(b"\x1f");
    h.write(format!("{config:?}").as_bytes());
    h.write(b"\x1f");
    for p in params {
        h.write(&p.to_le_bytes());
    }
    h.write(b"\x1f");
    h.write(&resident_blocks.to_le_bytes());
    h.finish()
}

// ---------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------

/// In-memory timing-result cache.
struct SimCache {
    mem: Mutex<HashMap<u128, TimingReport>>,
}

/// Lock a mutex, recovering the data if a previous holder panicked. The
/// map stays coherent under partial updates (inserts are atomic per
/// entry), so poison recovery is safe and keeps the cache usable after a
/// caught experiment panic.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SimCache {
    fn new() -> SimCache {
        SimCache {
            mem: Mutex::new(HashMap::new()),
        }
    }

    fn lookup(&self, key: u128) -> Option<TimingReport> {
        lock_recover(&self.mem).get(&key).cloned()
    }

    fn store(&self, key: u128, report: &TimingReport) {
        lock_recover(&self.mem).insert(key, report.clone());
    }
}

// ---------------------------------------------------------------------
// Global (process-wide) instance
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<SimCache> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable the process-wide cache used by [`run_cached`].
///
/// The argument is ignored: the cache lives in memory only. It exists
/// only for the API the benchmark package pins (`benchmark/src/api.rs`
/// re-exports this function, and its `micro_sweep` workload passes a
/// directory). ROADMAP item 8 removes it together with that call.
pub fn enable_global(_disk_dir: Option<PathBuf>) {
    GLOBAL.get_or_init(SimCache::new);
    ENABLED.store(true, Ordering::Release);
}

/// Disable the process-wide cache (entries are retained and reused if it is
/// re-enabled).
pub fn disable_global() {
    ENABLED.store(false, Ordering::Release);
}

/// The active process-wide cache, or `None` when disabled.
fn active() -> Option<&'static SimCache> {
    if ENABLED.load(Ordering::Acquire) {
        GLOBAL.get()
    } else {
        None
    }
}

/// Time `sim` for its report alone, consulting the process-wide cache
/// when it has been enabled.
///
/// `memory` is unspecified afterwards. On a cache hit the simulation is
/// skipped entirely, and a simulated run skips the recurring periods of a
/// finishing loop together with their stores (DESIGN.md §5.1); the report
/// is what [`TimingSim::run`] gives either way. Callers that inspect
/// memory after timing — none of the experiment drivers do — must use
/// [`TimingSim::run`] directly.
///
/// # Errors
///
/// Same as [`TimingSim::run`].
pub fn run_cached(sim: &TimingSim, memory: &mut GlobalMemory) -> Result<TimingReport, SimError> {
    let timing_only = Hooks {
        timing_only: true,
        ..Hooks::default()
    };
    let Some(cache) = active() else {
        return sim.run(memory, timing_only);
    };
    let key = sim.cache_key();
    if let Some(report) = cache.lookup(key) {
        crate::stats::record_cache_hit();
        return Ok(report);
    }
    crate::stats::record_cache_miss();
    let report = sim.run(memory, timing_only)?;
    cache.store(key, &report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::trace::Hooks;
    use peakperf_arch::Generation;
    use peakperf_sass::{KernelBuilder, Operand, Reg};

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k", Generation::Fermi);
        for _ in 0..4 {
            b.ffma(Reg::r(8), Reg::r(1), Operand::reg(4), Reg::r(8));
        }
        b.exit();
        b.finish().unwrap()
    }

    fn sample_report() -> TimingReport {
        let gpu = GpuConfig::gtx580();
        let kernel = sample_kernel();
        let mut mem = GlobalMemory::new();
        let sim = TimingSim::new(&gpu, &kernel, LaunchConfig::linear(1, 64), &[], 1).unwrap();
        sim.run(&mut mem, Hooks::default()).unwrap()
    }

    #[test]
    fn key_is_sensitive_to_each_input() {
        let gpu = GpuConfig::gtx580();
        let kernel = sample_kernel();
        let config = LaunchConfig::linear(4, 64);
        let base = run_key(&gpu, &kernel, config, &[7], 2);

        let mut other_gpu = gpu.clone();
        other_gpu.num_sms += 1;
        assert_ne!(base, run_key(&other_gpu, &kernel, config, &[7], 2));

        let mut other_kernel = kernel.clone();
        other_kernel.num_regs += 1;
        assert_ne!(base, run_key(&gpu, &other_kernel, config, &[7], 2));

        assert_ne!(
            base,
            run_key(&gpu, &kernel, LaunchConfig::linear(4, 128), &[7], 2)
        );
        assert_ne!(base, run_key(&gpu, &kernel, config, &[8], 2));
        assert_ne!(base, run_key(&gpu, &kernel, config, &[7], 3));
        assert_eq!(base, run_key(&gpu, &kernel, config, &[7], 2));
    }

    #[test]
    fn cache_key_is_the_run_key_of_the_same_inputs() {
        let gpu = GpuConfig::gtx580();
        let kernel = sample_kernel();
        let config = LaunchConfig::linear(4, 64);
        let sim = TimingSim::new(&gpu, &kernel, config, &[], 2).unwrap();
        assert_eq!(sim.cache_key(), run_key(&gpu, &kernel, config, &[], 2));
    }

    #[test]
    fn a_stored_report_is_found_by_its_key() {
        let cache = SimCache::new();
        let report = sample_report();
        assert!(cache.lookup(42).is_none());
        cache.store(42, &report);
        let hit = cache.lookup(42).unwrap();
        assert_eq!(hit.cycles, report.cycles);
        assert_eq!(hit.mix, report.mix);
        assert!(cache.lookup(43).is_none());
    }
}
