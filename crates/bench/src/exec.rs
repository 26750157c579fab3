//! A scoped-thread job executor for the experiment drivers.
//!
//! Every experiment in [`crate::experiments`] is a loop of independent
//! simulation jobs (one per matrix size, per instruction pattern, per
//! thread count, ...). This module runs such loops across worker threads
//! with plain [`std::thread::scope`] — no external dependencies — while
//! keeping results in **input order**, so the rendered tables are
//! byte-identical whatever the worker count.
//!
//! Jobs are claimed dynamically (an atomic cursor over the item slice), so
//! uneven job sizes — a 4096³ SGEMM wave next to a 128³ one — balance
//! automatically.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count override set by `--workers`; 0 = auto.
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker count (0 restores auto-detection).
pub fn set_default_workers(n: usize) {
    DEFAULT_WORKERS.store(n, Ordering::Relaxed);
}

/// The process-wide default worker count: the value set by
/// [`set_default_workers`], else [`std::thread::available_parallelism`].
pub fn default_workers() -> usize {
    let set = DEFAULT_WORKERS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    /// An executor sized by [`default_workers`].
    pub fn auto() -> Executor {
        Executor::new(default_workers())
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, in parallel, returning results in **input
    /// order** regardless of the worker count or scheduling.
    ///
    /// # Panics
    ///
    /// A panic in `f` propagates to the caller (via scope join) once the
    /// other in-flight jobs finish.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.try_map(items, |item| Ok::<T, Never>(f(item)))
            .unwrap_or_else(|never| match never {})
    }

    /// Like [`Executor::try_map`], additionally pairing each result with
    /// the simulation-counter growth attributable to that job alone.
    ///
    /// The scope opens and closes at the executor boundary (around one
    /// job, on the worker thread that claimed it), so concurrent jobs do
    /// not interleave into each other's counters the way they do in the
    /// process-global [`peakperf_sim::Counters::snapshot`] view. The
    /// global counters still advance for backwards compatibility.
    ///
    /// # Errors
    ///
    /// The error of the first failing job, by input order.
    pub fn try_map_scoped<I, T, E, F>(
        &self,
        items: &[I],
        f: F,
    ) -> Result<Vec<(T, peakperf_sim::Counters)>, E>
    where
        I: Sync,
        T: Send,
        E: Send,
        F: Fn(&I) -> Result<T, E> + Sync,
    {
        self.try_map(items, |item| {
            let (result, counters) = peakperf_sim::with_counter_scope(|| f(item));
            result.map(|value| (value, counters))
        })
    }

    /// Like [`Executor::map`] for fallible jobs: on success returns every
    /// result in input order; on failure returns the error of the
    /// smallest-index failing job (deterministic — jobs are claimed in
    /// index order and a claimed job always runs to completion, so the
    /// first failure by input order is always observed).
    ///
    /// After the first failure no *new* jobs are started.
    ///
    /// # Errors
    ///
    /// The error of the first failing job, by input order.
    pub fn try_map<I, T, E, F>(&self, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        I: Sync,
        T: Send,
        E: Send,
        F: Fn(&I) -> Result<T, E> + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(&f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<T, E>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Acquire) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = f(item);
                    if result.is_err() {
                        failed.store(true, Ordering::Release);
                    }
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });

        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot.into_inner().unwrap() {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                // Unclaimed suffix after a failure: the failure itself
                // appears earlier in the scan, so this is unreachable on
                // the success path.
                None => unreachable!("unexecuted job without a preceding failure"),
            }
        }
        Ok(out)
    }
}

/// An uninhabited error type (`!` on stable), letting [`Executor::map`]
/// reuse the fallible path.
enum Never {}

/// Extract a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Panic isolation with backtrace capture
// ---------------------------------------------------------------------------

use std::cell::{Cell, RefCell};

thread_local! {
    /// Nesting depth of [`run_isolated`] on this thread; the scoped hook
    /// only captures while it is positive.
    static ISOLATION_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Backtrace of the most recent panic raised on this thread while
    /// isolated, taken by [`run_isolated`] when it catches the unwind.
    static LAST_BACKTRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Install the process-wide panic hook that backs [`run_isolated`]'s
/// backtrace capture, chaining to the previously installed hook for
/// panics outside any isolation scope (so ordinary panics still print).
fn install_capture_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if ISOLATION_DEPTH.with(Cell::get) > 0 {
                // Force-capture: the backtrace must exist even without
                // RUST_BACKTRACE set, because it ends up in a structured
                // FAILED report, not on stderr. Capturing also swallows
                // the default stderr dump — an isolated panic is expected
                // traffic (fuzz mutants, hostile service jobs), not noise
                // worth two screens of output per mutant.
                let bt = std::backtrace::Backtrace::force_capture();
                LAST_BACKTRACE.with(|slot| *slot.borrow_mut() = Some(condense_backtrace(&bt)));
            } else {
                previous(info);
            }
        }));
    });
}

/// Reduce a raw backtrace to the frames a failure report needs: drop the
/// capture/panic machinery above the panic site and the catch/runtime
/// scaffolding below the isolated closure, and cap the frame count.
fn condense_backtrace(bt: &std::backtrace::Backtrace) -> String {
    // `Backtrace`'s Display is one numbered line per frame, optionally
    // followed by an indented `at file:line` location line.
    let full = format!("{bt}");
    let mut frames: Vec<Vec<&str>> = Vec::new();
    for line in full.lines() {
        if line.trim_start().starts_with("at ") {
            if let Some(frame) = frames.last_mut() {
                frame.push(line);
            }
        } else {
            frames.push(vec![line]);
        }
    }
    let is_machinery_above = |frame: &[&str]| {
        frame[0].contains("core::panicking")
            || frame[0].contains("std::panicking")
            || frame[0].contains("rust_begin_unwind")
            || frame[0].contains("backtrace::Backtrace")
            || frame[0].contains("install_capture_hook")
    };
    let is_scaffolding_below = |frame: &[&str]| {
        frame[0].contains("__rust_try")
            || frame[0].contains("std::panic::catch_unwind")
            || frame[0].contains("run_isolated")
            || frame[0].contains("std::rt::")
            || frame[0].contains("__libc_start")
    };
    // Start after the last machinery frame at the top of the stack.
    let start = frames
        .iter()
        .rposition(|f| is_machinery_above(f))
        .map_or(0, |i| i + 1);
    let end = frames[start..]
        .iter()
        .position(|f| is_scaffolding_below(f))
        .map_or(frames.len(), |i| start + i);
    let selected = &frames[start..end];
    if selected.is_empty() {
        return full;
    }
    let mut out: Vec<&str> = Vec::new();
    for frame in selected.iter().take(25) {
        out.extend(frame.iter().copied());
    }
    if selected.len() > 25 {
        out.push("  ... (truncated)");
    }
    out.join("\n")
}

/// Run `f` under a panic-to-error boundary: a panic inside the closure
/// becomes an `Err` carrying the panic message **and the backtrace of the
/// panic site**, instead of unwinding through the harness and tearing down
/// the whole run. FAILED experiments and service jobs thus report where
/// they died, not just what the payload said.
///
/// The capture uses a scoped panic hook: installed process-wide once, it
/// only records (and suppresses the default stderr dump) for panics raised
/// on a thread currently inside `run_isolated`; panics elsewhere go to the
/// previously installed hook unchanged. Panics that cross threads before
/// being caught (e.g. an [`Executor::map`] worker propagating through the
/// scope join) keep their message but lose the backtrace — the re-raise on
/// the joining thread does not run the hook again.
///
/// This is the graceful-degradation seam for one experiment (or one fuzz
/// mutant): [`Executor::map`] still *propagates* panics by design (its jobs
/// are trusted harness code), so the boundary sits around the whole
/// experiment invocation, catching panics from any layer beneath it.
///
/// # Errors
///
/// Returns `Err` when `f` returns `Err` or panics.
pub fn run_isolated<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    install_capture_hook();
    ISOLATION_DEPTH.with(|d| d.set(d.get() + 1));
    LAST_BACKTRACE.with(|slot| *slot.borrow_mut() = None);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    ISOLATION_DEPTH.with(|d| d.set(d.get() - 1));
    outcome.unwrap_or_else(|payload| {
        let message = panic_message(payload.as_ref());
        match LAST_BACKTRACE.with(|slot| slot.borrow_mut().take()) {
            Some(bt) if !bt.trim().is_empty() => Err(format!("panic: {message}\nbacktrace:\n{bt}")),
            _ => Err(format!("panic: {message}")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let ex = Executor::new(8);
        let got = ex.map(&items, |&i| i * i);
        let want: Vec<usize> = items.iter().map(|&i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn one_worker_equals_many() {
        let items: Vec<u64> = (0..64).collect();
        // A job whose cost varies wildly with the item, to shuffle the
        // completion order under parallelism.
        let job = |&i: &u64| -> u64 {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = Executor::new(1).map(&items, job);
        let parallel = Executor::new(8).map(&items, job);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_map_reports_first_error_by_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let ex = Executor::new(8);
        let result: Result<Vec<usize>, usize> =
            ex.try_map(&items, |&i| if i == 17 || i == 63 { Err(i) } else { Ok(i) });
        assert_eq!(result, Err(17));
    }

    #[test]
    fn try_map_stops_claiming_after_failure() {
        let started = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let ex = Executor::new(4);
        let result: Result<Vec<usize>, ()> = ex.try_map(&items, |&i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(())
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(i)
            }
        });
        assert_eq!(result, Err(()));
        assert!(
            started.load(Ordering::Relaxed) < items.len(),
            "a failure should stop the remaining jobs"
        );
    }

    #[test]
    fn try_map_scoped_attributes_counters_per_job() {
        // No simulation here, so every per-job delta must be zero — the
        // real attribution is covered by the telemetry integration tests;
        // this guards the plumbing (shape, order, error path).
        let items: Vec<usize> = (0..16).collect();
        let ex = Executor::new(4);
        let out = ex
            .try_map_scoped(&items, |&i| Ok::<usize, ()>(i * 2))
            .unwrap();
        assert_eq!(out.len(), 16);
        for (i, (v, c)) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
            assert_eq!(*c, peakperf_sim::Counters::default());
        }
        let err: Result<Vec<(usize, _)>, usize> =
            ex.try_map_scoped(&items, |&i| if i == 3 { Err(i) } else { Ok(i) });
        assert_eq!(err.unwrap_err(), 3);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..32).collect();
        let ex = Executor::new(4);
        let outcome = std::panic::catch_unwind(|| {
            ex.map(&items, |&i| {
                assert!(i != 20, "boom");
                i
            })
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn run_isolated_turns_panics_into_errors() {
        let ok = run_isolated(|| Ok::<_, String>(7));
        assert_eq!(ok, Ok(7));
        let err = run_isolated(|| -> Result<u32, String> { Err("plain failure".into()) });
        assert_eq!(err, Err("plain failure".to_owned()));
        // No hook juggling needed: the scoped capture hook suppresses the
        // default stderr dump for isolated panics on its own.
        let caught = run_isolated(|| -> Result<u32, String> { panic!("boom {}", 42) });
        let text = caught.unwrap_err();
        assert!(text.starts_with("panic: boom 42"), "{text}");
    }

    #[test]
    fn run_isolated_captures_a_backtrace() {
        fn deep_panic() -> Result<u32, String> {
            panic!("deliberate service-job crash");
        }
        let text = run_isolated(deep_panic).unwrap_err();
        assert!(
            text.starts_with("panic: deliberate service-job crash"),
            "{text}"
        );
        // `force_capture` works without RUST_BACKTRACE, so the frames must
        // be attached (symbol names may be mangled or missing in release,
        // but the section itself is always present).
        assert!(text.contains("backtrace:"), "{text}");
    }

    #[test]
    fn non_isolated_panics_still_reach_the_previous_hook() {
        // A panic caught outside `run_isolated` must not populate the
        // thread-local capture slot (depth is zero, so the hook chains to
        // the default one; libtest captures its stderr line).
        run_isolated(|| Ok::<_, String>(0)).unwrap(); // ensure hook installed
        let _ = std::panic::catch_unwind(|| panic!("outside isolation"));
        let caught = run_isolated(|| -> Result<u32, String> { panic!("inside") });
        let text = caught.unwrap_err();
        assert!(text.starts_with("panic: inside"), "{text}");
    }

    #[test]
    fn empty_and_single_inputs() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = ex.map(&[] as &[u32], |&i| i);
        assert!(empty.is_empty());
        assert_eq!(ex.map(&[5u32], |&i| i + 1), vec![6]);
    }

    #[test]
    fn default_workers_is_positive_and_overridable() {
        assert!(default_workers() >= 1);
        set_default_workers(3);
        assert_eq!(default_workers(), 3);
        assert_eq!(Executor::auto().workers(), 3);
        set_default_workers(0);
        assert!(default_workers() >= 1);
    }
}
