//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a host
//! (a service worker enforcing a deadline, a user pressing Ctrl-C) and a
//! running [`TimingSim`](crate::timing::TimingSim). The simulator polls
//! the token every [`CHECK_INTERVAL_CYCLES`] simulated cycles — one
//! relaxed atomic load on the hot path, plus one `Instant::now()` per
//! check when a wall-clock deadline is armed — and aborts with
//! [`SimError::Cancelled`](crate::SimError::Cancelled), carrying the same
//! per-warp scheduling snapshot the cycle-limit watchdog produces, so a
//! cancelled run is debuggable rather than opaque.
//!
//! A token is a host-side stop only: it never changes what the simulator
//! does before it fires. A run under a token that never fires skips the
//! same recurrences and reports the same result as a run without one
//! (locked by `tests/observer_identity.rs` and `tests/recurrence.rs`).
//! The one deterministic, simulated-cycle stop is
//! [`Hooks::cycle_limit`](crate::timing::Hooks::cycle_limit).
//!
//! Three host-side paths fire a token:
//!
//! * [`CancelToken::cancel`] — an explicit request (cancel-by-id, user
//!   abort);
//! * [`CancelToken::cancel_from`] with [`CancelSource::Shutdown`] — a
//!   service tearing down in-flight work;
//! * a wall-clock deadline armed with [`CancelToken::with_deadline`] —
//!   the per-job budget of the simulation service.
//!
//! Whichever path fires first is recorded as a [`CancelSource`]
//! (`api | deadline | shutdown`), returned by the poll,
//! [`CancelToken::fire_state`], and queryable with
//! [`CancelToken::fired_source`] — the provenance the service journal
//! attaches to `CancelRequested` events and job results.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in simulated cycles) the timing loop polls its token.
///
/// Small enough that a deadline trips within a fraction of a millisecond
/// of host time even for slow cycles, large enough that the poll —
/// a relaxed load — is unmeasurable against the per-cycle work.
pub const CHECK_INTERVAL_CYCLES: u64 = 1024;

/// *Which* trigger path fired a token first — the provenance the service
/// journal records as `CancelRequested{source}` and surfaces on the job
/// result, so a cancelled job says whether the API, a deadline, or
/// shutdown stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelSource {
    /// An explicit host-side [`CancelToken::cancel`] (cancel-by-id).
    Api,
    /// The wall-clock deadline armed at token creation.
    Deadline,
    /// Service shutdown ([`CancelToken::cancel_from`] with this source).
    Shutdown,
}

impl CancelSource {
    /// Every source, in declaration order.
    pub const ALL: [CancelSource; 3] = [
        CancelSource::Api,
        CancelSource::Deadline,
        CancelSource::Shutdown,
    ];

    /// Stable tag used in journal events and result documents.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelSource::Api => "api",
            CancelSource::Deadline => "deadline",
            CancelSource::Shutdown => "shutdown",
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Wall-clock point after which the token fires.
    deadline: Option<Instant>,
    /// First trigger path that fired, as 1 + its index in
    /// [`CancelSource::ALL`] (0 = none yet); first writer wins, so the
    /// recorded source names the cause, not a later bystander.
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
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::armed(None)
    }

    /// A token that additionally fires once `budget` of wall-clock time
    /// has elapsed from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken::armed(Some(Instant::now() + budget))
    }

    fn armed(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline,
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
        let _ = self.inner.source.compare_exchange(
            0,
            source as u8 + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The first trigger path that fired this token, once one has. A
    /// deadline counts as fired once [`CancelToken::fire_state`] saw it
    /// pass.
    pub fn fired_source(&self) -> Option<CancelSource> {
        let tag = self.inner.source.load(Ordering::Relaxed);
        CancelSource::ALL
            .get(usize::from(tag).checked_sub(1)?)
            .copied()
    }

    /// Poll the token: `None` to keep running, else the source that fired
    /// first.
    ///
    /// This is the (cold-path) check the timing loop performs every
    /// [`CHECK_INTERVAL_CYCLES`]; a source that already fired wins over
    /// a deadline passing now.
    pub fn fire_state(&self) -> Option<CancelSource> {
        let fired = self.fired_source();
        if fired.is_some() || self.inner.deadline.is_none_or(|d| Instant::now() < d) {
            return fired;
        }
        self.cancel_from(CancelSource::Deadline);
        self.fired_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_token_never_fires_on_its_own() {
        let t = CancelToken::new();
        assert_eq!(t.fire_state(), None);
        assert_eq!(t.fired_source(), None);
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.fire_state(), Some(CancelSource::Api));
    }

    #[test]
    fn elapsed_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // The deadline is `now`, so any later poll must fire.
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.fired_source(), None, "armed but not yet polled");
        assert_eq!(t.fire_state(), Some(CancelSource::Deadline));
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(generous.fire_state(), None);
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.fire_state(), Some(CancelSource::Api));
        assert_eq!(t.fired_source(), Some(CancelSource::Api));
    }

    #[test]
    fn fired_source_names_the_trigger_path() {
        let api = CancelToken::new();
        assert_eq!(api.fired_source(), None, "unfired token has no source");
        api.cancel();
        assert_eq!(api.fired_source(), Some(CancelSource::Api));

        let deadline = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(deadline.fire_state(), Some(CancelSource::Deadline));
        assert_eq!(deadline.fired_source(), Some(CancelSource::Deadline));

        let shutdown = CancelToken::new();
        shutdown.cancel_from(CancelSource::Shutdown);
        assert_eq!(shutdown.fired_source(), Some(CancelSource::Shutdown));
    }

    #[test]
    fn first_fired_source_wins() {
        // A deadline that fired first is not re-attributed to a later
        // explicit cancel (the journal must name the real cause).
        let t = CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.fire_state(), Some(CancelSource::Deadline));
        t.cancel();
        assert_eq!(t.fired_source(), Some(CancelSource::Deadline));
        // Source is visible across clones like the flag itself.
        assert_eq!(t.clone().fired_source(), Some(CancelSource::Deadline));
    }
}
