//! A memoization cache for timing runs.
//!
//! A [`TimingSim`] run is a pure function of its inputs (GPU
//! configuration, kernel, launch configuration, parameter values,
//! resident-block count), so repeated runs — the experiment drivers
//! re-time identical microbenchmark kernels across figures, and repeated
//! `reproduce` invocations redo everything — can be answered from a cache.
//!
//! The cache is **opt-in** (see [`enable_global`]) because a hit skips the
//! functional execution entirely, including its writes to global memory.
//! Every caller in this repository discards the memory after timing, so the
//! experiment drivers enable it; code that inspects memory afterwards must
//! not.
//!
//! Keys are 128-bit [FNV-1a] hashes over the `Debug` rendering of the
//! inputs plus the raw parameter words. FNV is used instead of the standard
//! library's `Hasher` because the key also names on-disk entries, so it
//! must be stable across Rust versions and processes.
//!
//! Keys omit the contents of global memory. A report does not depend on
//! them: simulated time never reads operand values, which
//! `tests/determinism.rs::timing_does_not_read_operand_values` checks for
//! every SGEMM preset and variant on both GPUs.
//!
//! The disk tier is hardened for concurrent, long-lived use (the
//! simulation service shares one `--cache-dir` across processes and
//! restarts): entries are written atomically (temp file + rename, so a
//! killed process never leaves a torn entry under a valid name), carry a
//! trailing FNV checksum verified on load, and anything unparseable is
//! quarantined — renamed to `.bad` and counted ([`quarantined_count`]) —
//! instead of silently accepted.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use peakperf_arch::GpuConfig;
use peakperf_sass::Kernel;

use crate::timing::sm::{StallKind, TimingReport, TimingSim};
use crate::timing::trace::Hooks;
use crate::{GlobalMemory, LaunchConfig, SimError};

// ---------------------------------------------------------------------
// Key hashing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent 64-bit FNV-1a streams (different offset bases) giving a
/// 128-bit digest — collision-safe for the few thousand distinct runs an
/// experiment suite produces, and stable across processes.
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

/// In-memory timing-result cache with an optional on-disk tier.
pub struct SimCache {
    mem: Mutex<HashMap<u128, TimingReport>>,
    disk: Mutex<Option<PathBuf>>,
}

/// Lock a mutex, recovering the data if a previous holder panicked. Both
/// cache maps stay coherent under partial updates (inserts are atomic per
/// entry), so poison recovery is safe and keeps the cache usable after a
/// caught experiment panic.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SimCache {
    /// An empty cache; `disk_dir`, when given, names a directory where
    /// entries are persisted as one small text file each (created on first
    /// store).
    pub fn new(disk_dir: Option<PathBuf>) -> SimCache {
        SimCache {
            mem: Mutex::new(HashMap::new()),
            disk: Mutex::new(disk_dir),
        }
    }

    /// Look up a report by key: memory first, then disk (a disk hit is
    /// promoted into memory).
    pub fn lookup(&self, key: u128) -> Option<TimingReport> {
        if let Some(r) = lock_recover(&self.mem).get(&key) {
            return Some(r.clone());
        }
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let Some(report) = parse_report(&text) else {
            // A torn, truncated, bit-flipped, or foreign entry: quarantine
            // it (rename to `.bad`, atomic even against a concurrent
            // writer) and count it, instead of silently accepting zeroed
            // fields. The slot becomes a plain miss and is re-simulated.
            quarantine(&path);
            return None;
        };
        lock_recover(&self.mem).insert(key, report.clone());
        Some(report)
    }

    /// Store a report under `key` (in memory, and on disk when configured).
    /// Disk write failures are ignored: the cache is an accelerator, not a
    /// store of record.
    ///
    /// Disk entries are written atomically — serialized to a unique temp
    /// file in the same directory, then renamed over the final name — so a
    /// process killed mid-write (or two processes sharing a `--cache-dir`)
    /// can never leave a torn entry under a valid entry name.
    pub fn store(&self, key: u128, report: &TimingReport) {
        lock_recover(&self.mem).insert(key, report.clone());
        if let Some(path) = self.entry_path(key) {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
            let tmp = path.with_extension(format!(
                "tmp.{}.{}",
                std::process::id(),
                WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            if std::fs::write(&tmp, serialize_report(report)).is_ok()
                && std::fs::rename(&tmp, &path).is_err()
            {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.mem).len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry_path(&self, key: u128) -> Option<PathBuf> {
        let disk = lock_recover(&self.disk);
        disk.as_ref()
            .map(|dir| dir.join(format!("{key:032x}.simcache")))
    }
}

// ---------------------------------------------------------------------
// Global (process-wide) instance
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<SimCache> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable the process-wide cache used by [`run_cached`].
///
/// `disk_dir`, when given, adds a persistent tier under that directory;
/// passing `None` after a directory was set keeps the existing directory.
pub fn enable_global(disk_dir: Option<PathBuf>) {
    let cache = GLOBAL.get_or_init(|| SimCache::new(None));
    if let Some(dir) = disk_dir {
        *lock_recover(&cache.disk) = Some(dir);
    }
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

/// Run `sim` unobserved, consulting the process-wide cache when it has
/// been enabled.
///
/// On a cache hit the simulation is skipped entirely, so the functional
/// side effects of the kernel (writes to `memory`) do **not** happen.
/// Callers that inspect memory after timing — none of the experiment
/// drivers do — must use [`TimingSim::run`] directly.
///
/// # Errors
///
/// Same as [`TimingSim::run`].
pub fn run_cached(sim: &TimingSim, memory: &mut GlobalMemory) -> Result<TimingReport, SimError> {
    let Some(cache) = active() else {
        return sim.run(memory, Hooks::default());
    };
    let key = sim.cache_key();
    if let Some(report) = cache.lookup(key) {
        crate::stats::record_cache_hit();
        return Ok(report);
    }
    crate::stats::record_cache_miss();
    let report = sim.run(memory, Hooks::default())?;
    cache.store(key, &report);
    Ok(report)
}

// ---------------------------------------------------------------------
// Quarantine of corrupt disk entries
// ---------------------------------------------------------------------

/// Corrupt entries quarantined (renamed to `.bad`) by this process.
static QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// Number of corrupt disk entries this process has quarantined.
pub fn quarantined_count() -> u64 {
    QUARANTINED.load(Ordering::Relaxed)
}

/// Move a corrupt entry out of the way (`<entry>.bad`) so it is never
/// re-parsed, and count it. Rename failures (e.g. a concurrent process
/// already quarantined or replaced it) are ignored — the entry is treated
/// as a miss either way.
fn quarantine(path: &Path) {
    let bad = path.with_extension("simcache.bad");
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::rename(path, &bad);
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Report (de)serialization — line-oriented text, versioned, checksummed
// ---------------------------------------------------------------------

/// v2 adds a trailing `checksum` line and a strict parser (all scalar
/// fields required exactly once); v1 entries predate both and are
/// quarantined like any other unparseable file.
const FORMAT_TAG: &str = "peakperf-simcache v2";

/// The scalar (non-repeating) fields of an entry, in serialization order.
/// The parser requires each of these exactly once — a truncated or
/// tag-only file must never parse into an all-zero report.
const SCALAR_FIELDS: [&str; 8] = [
    "cycles",
    "warp_instructions",
    "thread_instructions",
    "flops",
    "lds_conflict_cycles",
    "global_transactions",
    "global_bytes",
    "hazard_replays",
];

/// FNV-1a over the entry body — stable across processes (same reason the
/// key hash is FNV), written as the final `checksum` line and verified on
/// load so a torn or bit-flipped entry is detected even when the damage
/// leaves every line individually well-formed.
fn body_checksum(body: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in body.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn serialize_report(r: &TimingReport) -> String {
    let mut out = String::new();
    out.push_str(FORMAT_TAG);
    out.push('\n');
    out.push_str(&format!("cycles {}\n", r.cycles));
    out.push_str(&format!("warp_instructions {}\n", r.warp_instructions));
    out.push_str(&format!("thread_instructions {}\n", r.thread_instructions));
    out.push_str(&format!("flops {}\n", r.flops));
    out.push_str(&format!("lds_conflict_cycles {}\n", r.lds_conflict_cycles));
    out.push_str(&format!("global_transactions {}\n", r.global_transactions));
    out.push_str(&format!("global_bytes {}\n", r.global_bytes));
    out.push_str(&format!("hazard_replays {}\n", r.hazard_replays));
    for (kind, n) in &r.stalls {
        out.push_str(&format!("stall {} {n}\n", kind.as_str()));
    }
    for (mnemonic, n) in r.mix.iter() {
        out.push_str(&format!("mix {mnemonic} {n}\n"));
    }
    out.push_str(&format!("checksum {:016x}\n", body_checksum(&out)));
    out
}

fn parse_report(text: &str) -> Option<TimingReport> {
    // The checksum line covers everything before it, including the tag.
    let body_end = text.rfind("checksum ")?;
    // The checksum must be the final line, not a value embedded elsewhere.
    if body_end > 0 && text.as_bytes()[body_end - 1] != b'\n' {
        return None;
    }
    let (body, trailer) = text.split_at(body_end);
    let recorded = trailer
        .strip_prefix("checksum ")?
        .trim_end_matches('\n')
        .trim();
    if recorded.len() != 16 || u64::from_str_radix(recorded, 16).ok()? != body_checksum(body) {
        return None;
    }

    let mut lines = body.lines();
    if lines.next()? != FORMAT_TAG {
        return None;
    }
    let mut report = TimingReport::default();
    let mut seen_scalar = [false; SCALAR_FIELDS.len()];
    for line in lines {
        let mut parts = line.split_whitespace();
        let field = parts.next()?;
        match field {
            "stall" => {
                let kind = StallKind::parse(parts.next()?)?;
                let n = parts.next()?.parse().ok()?;
                if report.stalls.insert(kind, n).is_some() {
                    return None; // duplicate stall kind
                }
            }
            "mix" => {
                let mnemonic = parts.next()?;
                if report.mix.count(mnemonic) != 0 {
                    return None; // duplicate mnemonic
                }
                let n = parts.next()?.parse().ok()?;
                report.mix.add_count(mnemonic, n);
            }
            _ => {
                let slot = SCALAR_FIELDS.iter().position(|f| *f == field)?;
                if seen_scalar[slot] {
                    return None; // duplicate scalar field
                }
                seen_scalar[slot] = true;
                let value: u64 = parts.next()?.parse().ok()?;
                match field {
                    "cycles" => report.cycles = value,
                    "warp_instructions" => report.warp_instructions = value,
                    "thread_instructions" => report.thread_instructions = value,
                    "flops" => report.flops = value,
                    "lds_conflict_cycles" => report.lds_conflict_cycles = value,
                    "global_transactions" => report.global_transactions = value,
                    "global_bytes" => report.global_bytes = value,
                    "hazard_replays" => report.hazard_replays = value,
                    _ => return None,
                }
            }
        }
        if parts.next().is_some() {
            return None;
        }
    }
    // Every scalar field is required: a tag-only or truncated entry must
    // not parse into a silent zero-cycle report.
    if !seen_scalar.iter().all(|&s| s) {
        return None;
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn round_trips_through_text() {
        let report = sample_report();
        let parsed = parse_report(&serialize_report(&report)).unwrap();
        assert_eq!(parsed.cycles, report.cycles);
        assert_eq!(parsed.warp_instructions, report.warp_instructions);
        assert_eq!(parsed.thread_instructions, report.thread_instructions);
        assert_eq!(parsed.flops, report.flops);
        assert_eq!(parsed.stalls, report.stalls);
        assert_eq!(parsed.mix, report.mix);
    }

    #[test]
    fn rejects_foreign_text() {
        assert!(parse_report("not a cache file").is_none());
        assert!(parse_report(&format!("{FORMAT_TAG}\nbogus_field 3")).is_none());
    }

    /// Re-checksum a tampered body so the parser's rejection exercises the
    /// field rules rather than the checksum (tampering alone would trip
    /// the checksum first).
    fn with_fresh_checksum(body: &str) -> String {
        format!("{body}checksum {:016x}\n", body_checksum(body))
    }

    #[test]
    fn rejects_corrupt_entry_corpus() {
        let good = serialize_report(&sample_report());
        let body = good
            .split_inclusive('\n')
            .filter(|l| !l.starts_with("checksum "))
            .collect::<String>();

        // Tag-only and truncated entries: must never parse into an
        // all-zero report.
        assert!(parse_report(&with_fresh_checksum(&format!("{FORMAT_TAG}\n"))).is_none());
        assert!(parse_report(FORMAT_TAG).is_none());
        let half = &good[..good.len() / 2];
        assert!(parse_report(half).is_none());
        // Truncation that keeps whole lines but drops trailing fields.
        let three_lines = body.split_inclusive('\n').take(3).collect::<String>();
        assert!(parse_report(&with_fresh_checksum(&three_lines)).is_none());

        // Wrong tag.
        assert!(parse_report(&with_fresh_checksum(&body.replacen("v2", "v9", 1))).is_none());
        assert!(parse_report(&good.replacen(FORMAT_TAG, "peakperf-simcache v1", 1)).is_none());

        // Duplicate fields: scalars, stall kinds, and mix mnemonics.
        assert!(parse_report(&with_fresh_checksum(&format!("{body}cycles 7\n"))).is_none());
        assert!(parse_report(&with_fresh_checksum(&format!(
            "{body}stall scoreboard 1\nstall scoreboard 2\n"
        )))
        .is_none());
        assert!(parse_report(&with_fresh_checksum(&format!(
            "{body}mix NOP 1\nmix NOP 2\n"
        )))
        .is_none());

        // Bit flips anywhere in the body trip the checksum.
        for pos in [0, good.len() / 3, good.len() - 2] {
            let mut bytes = good.clone().into_bytes();
            bytes[pos] ^= 0x10;
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert!(parse_report(&flipped).is_none(), "bit flip at {pos} parsed");
            }
        }

        // A checksum line that is not the final line.
        let misplaced = format!("checksum {:016x}\n{good}", body_checksum(""));
        assert!(parse_report(&misplaced).is_none());

        // The unmodified entry still parses (the corpus is not vacuous).
        assert!(parse_report(&good).is_some());
    }

    #[test]
    fn corrupt_disk_entries_are_quarantined_not_parsed() {
        let dir = std::env::temp_dir().join(format!(
            "peakperf-simcache-quarantine-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = sample_report();
        let cache = SimCache::new(Some(dir.clone()));

        // A valid entry for key 1, then three corrupt files: truncated,
        // tag-only, and garbage.
        cache.store(1, &report);
        let entry = |k: u128| dir.join(format!("{k:032x}.simcache"));
        let good_text = std::fs::read_to_string(entry(1)).unwrap();
        std::fs::write(entry(2), &good_text[..good_text.len() / 2]).unwrap();
        std::fs::write(entry(3), format!("{FORMAT_TAG}\n")).unwrap();
        std::fs::write(entry(4), "garbage\n").unwrap();

        let before = quarantined_count();
        // Fresh cache instance: all lookups go to disk.
        let fresh = SimCache::new(Some(dir.clone()));
        assert_eq!(fresh.lookup(1).unwrap().cycles, report.cycles);
        assert!(fresh.lookup(2).is_none());
        assert!(fresh.lookup(3).is_none());
        assert!(fresh.lookup(4).is_none());
        assert_eq!(quarantined_count() - before, 3);

        // The corrupt files moved aside; a re-lookup does not re-count.
        for k in [2u128, 3, 4] {
            assert!(!entry(k).exists(), "corrupt entry {k} still in place");
            assert!(
                entry(k).with_extension("simcache.bad").exists(),
                "quarantined file for {k} missing"
            );
            assert!(fresh.lookup(k).is_none());
        }
        assert_eq!(quarantined_count() - before, 3);

        // A re-store over a quarantined slot works and parses again.
        fresh.store(2, &report);
        let again = SimCache::new(Some(dir.clone()));
        assert_eq!(again.lookup(2).unwrap().cycles, report.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_leaves_no_temp_files_and_survives_concurrent_writers() {
        let dir =
            std::env::temp_dir().join(format!("peakperf-simcache-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        let cache = SimCache::new(Some(dir.clone()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        cache.store(99, &report);
                    }
                });
            }
        });
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "leftover files: {names:?}");
        assert!(names[0].ends_with(".simcache"));
        let fresh = SimCache::new(Some(dir.clone()));
        assert_eq!(fresh.lookup(99).unwrap().cycles, report.cycles);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn memory_tier_hits() {
        let cache = SimCache::new(None);
        let report = sample_report();
        assert!(cache.lookup(42).is_none());
        cache.store(42, &report);
        let hit = cache.lookup(42).unwrap();
        assert_eq!(hit.cycles, report.cycles);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_tier_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("peakperf-simcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        {
            let cache = SimCache::new(Some(dir.clone()));
            cache.store(7, &report);
        }
        // A fresh cache instance (empty memory tier) must find it on disk.
        let cache = SimCache::new(Some(dir.clone()));
        let hit = cache.lookup(7).expect("disk entry");
        assert_eq!(hit.cycles, report.cycles);
        assert_eq!(hit.mix, report.mix);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
