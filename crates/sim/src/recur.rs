//! Exact recurrence detection, shared by both engines: a deterministic
//! run whose whole state at a checkpoint equals its state at an earlier
//! one, with no store in between, repeats that period until its watchdog.

/// Brent's cycle finding over a run's checkpoints: the checkpoints seen,
/// and the saved one (position, store count then, state), which is the
/// 1st, 2nd, 4th, 8th, ... and is compared at every checkpoint.
pub(crate) struct Brent<K>(u64, Option<(u64, u64, K)>);

impl<K> Default for Brent<K> {
    fn default() -> Brent<K> {
        Brent(0, None)
    }
}

impl<K> Brent<K> {
    /// Feed the checkpoint at position `at` (step or cycle), after
    /// `stores` stores in all. Returns the period if no store happened
    /// since the saved checkpoint and `same` holds for its state; else
    /// saves this one, copied by `copy`, if its turn has come.
    pub(crate) fn check(
        &mut self,
        at: u64,
        stores: u64,
        same: impl FnOnce(&K) -> bool,
        copy: impl FnOnce() -> K,
    ) -> Option<u64> {
        match &self.1 {
            Some((from, then, saved)) if *then == stores && same(saved) => return Some(at - from),
            _ => {}
        }
        self.0 += 1;
        if self.0.is_power_of_two() {
            self.1 = Some((at, stores, copy()));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_period_after_a_transient() {
        // 0, 1, ..., 9, then 10..17 repeating: period 8 from position 10.
        let state = |i: u64| if i < 10 { i } else { 10 + (i - 10) % 8 };
        let mut brent = Brent::default();
        let found = (0..100u64).find_map(|i| {
            brent
                .check(i, 0, |&s| s == state(i), || state(i))
                .map(|p| (i, p))
        });
        let (at, period) = found.expect("a period");
        assert_eq!(period, 8);
        assert!(at < 10 + 4 * 8, "found late, at {at}");
    }

    #[test]
    fn a_store_in_between_is_not_a_recurrence() {
        let mut brent = Brent::default();
        assert_eq!(brent.check(0, 0, |_| true, || ()), None);
        // Saved at the 1st and the 2nd checkpoint, compared at the 3rd.
        assert_eq!(brent.check(5, 1, |_| true, || ()), None);
        assert_eq!(brent.check(9, 1, |_| true, || ()), Some(4));
    }
}
