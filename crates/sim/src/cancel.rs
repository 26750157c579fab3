//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a host
//! (a service worker enforcing a deadline, a user pressing Ctrl-C) and a
//! running [`TimingSim`](crate::timing::TimingSim). The simulator polls
//! the token every [`CHECK_INTERVAL_CYCLES`] simulated cycles — one
//! relaxed atomic load on the hot path, plus one `Instant::now()` per
//! check when a wall-clock deadline is armed — and aborts with a typed
//! [`SimError`](crate::SimError) carrying the same per-warp scheduling
//! snapshot the step-limit watchdog produces, so a cancelled run is
//! debuggable rather than opaque.
//!
//! Cancellation is strictly cooperative and observational: a token that
//! never fires leaves the simulated cycle count bit-identical to a run
//! without any token (locked by `tests/observer_identity.rs`).
//!
//! Three trigger paths, all funneled through [`CancelToken::fire_state`]:
//!
//! * [`CancelToken::cancel`] — an explicit host-side request
//!   (service shutdown, user abort);
//! * a wall-clock deadline armed with [`CancelToken::with_deadline`] —
//!   the per-job budget of the simulation service;
//! * a simulated-cycle trigger armed with
//!   [`CancelToken::cancel_at_cycle`] — deterministic by construction,
//!   used by tests to prove cancelled runs leave consistent state.
//!
//! Whichever path fires first is recorded as a [`CancelSource`]
//! (`api | cycle | deadline | shutdown`), queryable with
//! [`CancelToken::fired_source`] — the provenance the service journal
//! attaches to `CancelRequested` events and job results.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in simulated cycles) the timing loop polls its token.
///
/// Small enough that a deadline trips within a fraction of a millisecond
/// of host time even for slow cycles, large enough that the poll —
/// a relaxed load — is unmeasurable against the per-cycle work.
pub const CHECK_INTERVAL_CYCLES: u64 = 1024;

/// Why a poll decided the run must stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called (or a cycle trigger fired).
    Cancelled,
    /// The wall-clock deadline armed at token creation has passed.
    DeadlineExceeded,
}

/// *Which* trigger path fired a token first — the provenance the service
/// journal records as `CancelRequested{source}` and surfaces on the job
/// result, so a cancelled soak job says whether the API, the cycle grid,
/// a deadline, or shutdown killed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelSource {
    /// An explicit host-side [`CancelToken::cancel`] (cancel-by-id).
    Api,
    /// The deterministic [`CancelToken::cancel_at_cycle`] trigger.
    Cycle,
    /// The wall-clock deadline armed at token creation.
    Deadline,
    /// Service shutdown ([`CancelToken::cancel_from`] with this source).
    Shutdown,
}

impl CancelSource {
    /// Every source, in declaration order.
    pub const ALL: [CancelSource; 4] = [
        CancelSource::Api,
        CancelSource::Cycle,
        CancelSource::Deadline,
        CancelSource::Shutdown,
    ];

    /// Stable tag used in journal events and result documents.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelSource::Api => "api",
            CancelSource::Cycle => "cycle",
            CancelSource::Deadline => "deadline",
            CancelSource::Shutdown => "shutdown",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            CancelSource::Api => 1,
            CancelSource::Cycle => 2,
            CancelSource::Deadline => 3,
            CancelSource::Shutdown => 4,
        }
    }

    fn from_u8(v: u8) -> Option<CancelSource> {
        match v {
            1 => Some(CancelSource::Api),
            2 => Some(CancelSource::Cycle),
            3 => Some(CancelSource::Deadline),
            4 => Some(CancelSource::Shutdown),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Simulated cycle at or after which the token fires
    /// (`u64::MAX` = never).
    cancel_at_cycle: AtomicU64,
    /// Wall-clock point after which the token fires.
    deadline: Option<Instant>,
    /// The deadline's original budget, for diagnostics.
    deadline_ms: u64,
    /// First trigger path that fired (0 = none yet); first writer wins,
    /// so the recorded source names the cause, not a later bystander.
    source: AtomicU8,
}

/// A cloneable cancellation handle (see the module docs).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`] (or
    /// an armed cycle trigger).
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                cancel_at_cycle: AtomicU64::new(u64::MAX),
                deadline: None,
                deadline_ms: 0,
                source: AtomicU8::new(0),
            }),
        }
    }

    /// A token that additionally fires once `budget` of wall-clock time
    /// has elapsed from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                cancel_at_cycle: AtomicU64::new(u64::MAX),
                deadline: Some(Instant::now() + budget),
                deadline_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
                source: AtomicU8::new(0),
            }),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone. Tagged
    /// [`CancelSource::Api`]; use [`CancelToken::cancel_from`] for other
    /// provenances.
    pub fn cancel(&self) {
        self.cancel_from(CancelSource::Api);
    }

    /// [`CancelToken::cancel`] with an explicit provenance tag (e.g.
    /// [`CancelSource::Shutdown`] when a service tears down in-flight
    /// work). The first recorded source wins.
    pub fn cancel_from(&self, source: CancelSource) {
        self.tag(source);
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    fn tag(&self, source: CancelSource) {
        let _ = self.inner.source.compare_exchange(
            0,
            source.to_u8(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The first trigger path that fired this token, once one has.
    pub fn fired_source(&self) -> Option<CancelSource> {
        CancelSource::from_u8(self.inner.source.load(Ordering::Relaxed))
    }

    /// Arm a deterministic trigger: polls at simulated cycle >= `cycle`
    /// report [`CancelCause::Cancelled`]. Because the simulator polls on a
    /// fixed cycle grid, the abort point is a pure function of `cycle` —
    /// the determinism the cancellation tests rely on.
    pub fn cancel_at_cycle(&self, cycle: u64) {
        self.inner.cancel_at_cycle.store(cycle, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The deadline budget in milliseconds (0 when no deadline is armed).
    pub fn deadline_ms(&self) -> u64 {
        self.inner.deadline_ms
    }

    /// Poll the token at simulated cycle `cycle`: `None` to keep running.
    ///
    /// This is the (cold-path) check the timing loop performs every
    /// [`CHECK_INTERVAL_CYCLES`]; explicit cancellation wins over the
    /// deadline when both have fired.
    pub fn fire_state(&self, cycle: u64) -> Option<CancelCause> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            // cancel()/cancel_from() already tagged the source.
            return Some(CancelCause::Cancelled);
        }
        if cycle >= self.inner.cancel_at_cycle.load(Ordering::Relaxed) {
            self.tag(CancelSource::Cycle);
            return Some(CancelCause::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.tag(CancelSource::Deadline);
                return Some(CancelCause::DeadlineExceeded);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_token_never_fires_on_its_own() {
        let t = CancelToken::new();
        assert_eq!(t.fire_state(0), None);
        assert_eq!(t.fire_state(u64::MAX - 1), None);
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline_ms(), 0);
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.fire_state(0), Some(CancelCause::Cancelled));
    }

    #[test]
    fn cycle_trigger_fires_at_or_after_the_armed_cycle() {
        let t = CancelToken::new();
        t.cancel_at_cycle(5000);
        assert_eq!(t.fire_state(4999), None);
        assert_eq!(t.fire_state(5000), Some(CancelCause::Cancelled));
        assert_eq!(t.fire_state(1_000_000), Some(CancelCause::Cancelled));
    }

    #[test]
    fn elapsed_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // The deadline is `now`, so any later poll must fire.
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.fire_state(0), Some(CancelCause::DeadlineExceeded));
        assert_eq!(t.deadline_ms(), 0);
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(generous.fire_state(0), None);
        assert_eq!(generous.deadline_ms(), 3_600_000);
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.fire_state(0), Some(CancelCause::Cancelled));
        assert_eq!(t.fired_source(), Some(CancelSource::Api));
    }

    #[test]
    fn fired_source_names_the_trigger_path() {
        let api = CancelToken::new();
        assert_eq!(api.fired_source(), None, "unfired token has no source");
        api.cancel();
        assert_eq!(api.fired_source(), Some(CancelSource::Api));

        let cycle = CancelToken::new();
        cycle.cancel_at_cycle(100);
        assert_eq!(cycle.fired_source(), None, "armed but not yet polled");
        assert_eq!(cycle.fire_state(100), Some(CancelCause::Cancelled));
        assert_eq!(cycle.fired_source(), Some(CancelSource::Cycle));

        let deadline = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(deadline.fire_state(0), Some(CancelCause::DeadlineExceeded));
        assert_eq!(deadline.fired_source(), Some(CancelSource::Deadline));

        let shutdown = CancelToken::new();
        shutdown.cancel_from(CancelSource::Shutdown);
        assert_eq!(shutdown.fired_source(), Some(CancelSource::Shutdown));
    }

    #[test]
    fn first_fired_source_wins() {
        // A cycle trigger that fired first is not re-attributed to a
        // later explicit cancel (the journal must name the real cause).
        let t = CancelToken::new();
        t.cancel_at_cycle(10);
        assert_eq!(t.fire_state(10), Some(CancelCause::Cancelled));
        t.cancel();
        assert_eq!(t.fired_source(), Some(CancelSource::Cycle));
        // Source is visible across clones like the flag itself.
        assert_eq!(t.clone().fired_source(), Some(CancelSource::Cycle));
    }
}
