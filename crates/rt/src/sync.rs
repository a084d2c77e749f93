//! Lock-rank discipline: ranked wrappers over the std sync primitives.
//!
//! Every lock in the concurrent tier (`kfds-serve`, `kfds-rt`) carries a [`LockRank`] drawn from one global, totally
//! ordered registry — the concurrency analogue of the PR 8 tag-namespace
//! registry in [`crate::tags`]. The discipline is the classic
//! lock-hierarchy rule: a thread may only acquire a lock whose rank is
//! **strictly greater** than every rank it already holds. Any program
//! that obeys the rule on every thread cannot deadlock on these locks
//! (a wait-for cycle would need some edge to go from a higher rank to a
//! lower-or-equal one).
//!
//! The rule is enforced twice:
//! * **statically** — `cargo run -p xtask -- lint` (`rule_lock_discipline`)
//!   bans raw `Mutex`/`RwLock`/`Condvar` in the three crates and flags
//!   textually nested `.lock()` acquisitions whose ranks (looked up from
//!   [`FIELD_RANKS`]) are non-increasing;
//! * **dynamically** — in debug builds every acquisition is checked
//!   against a thread-local stack of held ranks and panics with
//!   `"lock-rank inversion"` on violation (exercised by the loom and
//!   TSan lanes). Release builds compile the checker out entirely.
//!
//! The wrappers are poison-recovering (like the `parking_lot` shim they
//! replace): a panic while holding a guard does not poison the data for
//! every later user — the serve tier's `catch_unwind` + quarantine
//! containment owns panic recovery at a higher level.

use std::sync::{self, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The global lock ordering. Acquisitions on one thread must be strictly
/// increasing in this order; the variant order *is* the lock hierarchy,
/// so insert new locks where they belong and never reorder existing
/// variants without auditing every nesting site.
///
/// The real nesting edges this order encodes (holder → acquiree):
/// * serve shutdown fulfills response cells while draining the queue
///   (`ServeQueue` → `ServeSlot`);
/// * a factor-cache build runs the setup cache single-flight
///   (`FactorCache` → `SetupCache` — both locks are only held for map
///   bookkeeping, builders run unlocked).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// Serve-tier request queue (`Shared.queue` in `kfds-serve`).
    ServeQueue = 0,
    /// Per-request response slot (`ResponseCell.slot`).
    ServeSlot = 1,
    /// Serve-tier metrics (`ServeMetrics.factor_levels`).
    ServeMetrics = 2,
    /// Factorization single-flight cache state.
    FactorCache = 3,
    /// λ-free setup single-flight cache state.
    SetupCache = 4,
    /// Runtime per-rank mailbox (`WorldState.mailboxes` in `kfds-rt`).
    RtMailbox = 5,
}

impl LockRank {
    /// Every rank, in hierarchy order (lowest first).
    pub const ALL: &'static [LockRank] = &[
        LockRank::ServeQueue,
        LockRank::ServeSlot,
        LockRank::ServeMetrics,
        LockRank::FactorCache,
        LockRank::SetupCache,
        LockRank::RtMailbox,
    ];

    /// Stable name for docs and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::ServeQueue => "ServeQueue",
            LockRank::ServeSlot => "ServeSlot",
            LockRank::ServeMetrics => "ServeMetrics",
            LockRank::FactorCache => "FactorCache",
            LockRank::SetupCache => "SetupCache",
            LockRank::RtMailbox => "RtMailbox",
        }
    }
}

/// Receiver-field-name → rank table for the static analyzer.
///
/// `rule_lock_discipline` resolves the rank of a textual `.lock()` call
/// from the field identifier it is invoked on (`self.queue.lock()` →
/// `queue` → `ServeQueue`); this table is the single source of
/// truth it consults, so a field rename or re-ranking is a one-line
/// change here and the lint follows. Fields whose rank is per-instance
/// (the generic single-flight cache's `state`) are deliberately absent —
/// the runtime checker covers them.
pub const FIELD_RANKS: &[(&str, LockRank)] = &[
    ("queue", LockRank::ServeQueue),
    ("slot", LockRank::ServeSlot),
    ("factor_levels", LockRank::ServeMetrics),
    ("mailboxes", LockRank::RtMailbox),
];

/// Debug-build thread-local stack of held ranks. Release builds compile
/// the bodies out; the functions stay so call sites need no cfg.
mod held {
    #[cfg(debug_assertions)]
    use std::cell::RefCell;

    use super::LockRank;

    #[cfg(debug_assertions)]
    thread_local! {
        static STACK: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks `rank` against every held rank and records the acquisition.
    /// Runs *before* blocking on the underlying primitive so an inversion
    /// panics loudly instead of deadlocking quietly.
    pub(super) fn acquire(rank: LockRank) {
        #[cfg(debug_assertions)]
        {
            // try_with: guards dropped during thread teardown must not
            // re-panic after the TLS slot is gone.
            let _ = STACK.try_with(|s| {
                let mut s = s.borrow_mut();
                if let Some(&worst) = s.iter().max() {
                    assert!(
                        worst < rank,
                        "lock-rank inversion: acquiring {} (rank {}) while holding {} (rank {}); \
                         acquisitions must be strictly increasing in kfds_rt::sync::LockRank order",
                        rank.name(),
                        rank as u8,
                        worst.name(),
                        worst as u8,
                    );
                }
                s.push(rank);
            });
        }
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }

    /// Removes one held entry of `rank` (guards may drop out of order).
    pub(super) fn release(rank: LockRank) {
        #[cfg(debug_assertions)]
        {
            let _ = STACK.try_with(|s| {
                let mut s = s.borrow_mut();
                if let Some(i) = s.iter().rposition(|&r| r == rank) {
                    s.remove(i);
                }
            });
        }
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }

    /// Snapshot of this thread's held ranks (debug builds; empty in
    /// release). Exposed for the discipline's own tests.
    #[cfg(all(test, debug_assertions))]
    pub(super) fn snapshot() -> Vec<LockRank> {
        STACK.try_with(|s| s.borrow().clone()).unwrap_or_default()
    }
}

/// This thread's currently held ranks, innermost last (always empty in
/// release builds, where the checker is compiled out).
#[cfg(test)]
pub(crate) fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        held::snapshot()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// A mutex that participates in the lock-rank discipline.
///
/// Non-poisoning: a panic while the guard is held leaves the data
/// accessible (panic containment lives in the serve tier's
/// `catch_unwind` + quarantine, not in lock poisoning).
pub struct RankedMutex<T: ?Sized> {
    rank: LockRank,
    inner: sync::Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Creates a mutex holding `value` at `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self { rank, inner: sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RankedMutex<T> {
    /// Acquires the lock, checking the rank discipline first (debug
    /// builds panic on inversion before blocking).
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        held::acquire(self.rank);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RankedMutexGuard { rank: self.rank, inner: Some(inner) }
    }

    /// The rank this mutex was constructed with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }
}

impl<T: ?Sized> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedMutex").field("rank", &self.rank).finish_non_exhaustive()
    }
}

/// Guard for [`RankedMutex`]; pops the rank from the held stack on drop.
pub struct RankedMutexGuard<'a, T: ?Sized> {
    rank: LockRank,
    // Option so the condvar wait path can hand the inner guard to
    // `Condvar::wait` without running this type's release-on-drop.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // PANIC-OK: `inner` is only None transiently inside wait()/drop(),
        // where no borrow of the guard can exist.
        self.inner.as_deref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // PANIC-OK: same transient-None invariant as Deref.
        self.inner.as_deref_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            drop(inner); // unlock first, then un-record the rank
            held::release(self.rank);
        }
    }
}

/// A condition variable paired with [`RankedMutex`] guards.
///
/// `wait`/`wait_timeout` un-record the guard's rank while the thread is
/// parked (the mutex really is released) and re-record it at wakeup,
/// re-checking the discipline against whatever the thread still holds.
pub struct RankedCondvar {
    inner: sync::Condvar,
}

impl RankedCondvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self { inner: sync::Condvar::new() }
    }

    /// Blocks until notified, releasing and reacquiring the guard.
    pub fn wait<'a, T>(&self, mut guard: RankedMutexGuard<'a, T>) -> RankedMutexGuard<'a, T> {
        let rank = guard.rank;
        // PANIC-OK: a live guard always has its inner Some; only this
        // module can take it.
        let inner = guard.inner.take().expect("waiting on a released guard");
        held::release(rank);
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        held::acquire(rank);
        RankedMutexGuard { rank, inner: Some(inner) }
    }

    /// Blocks until notified or `dur` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: RankedMutexGuard<'a, T>,
        dur: Duration,
    ) -> (RankedMutexGuard<'a, T>, WaitTimeoutResult) {
        let rank = guard.rank;
        // PANIC-OK: same live-guard invariant as wait().
        let inner = guard.inner.take().expect("waiting on a released guard");
        held::release(rank);
        let (inner, timed_out) =
            self.inner.wait_timeout(inner, dur).unwrap_or_else(PoisonError::into_inner);
        held::acquire(rank);
        (RankedMutexGuard { rank, inner: Some(inner) }, timed_out)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for RankedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registry_is_strictly_ordered_and_named() {
        for w in LockRank::ALL.windows(2) {
            assert!(w[0] < w[1], "{} must rank below {}", w[0].name(), w[1].name());
        }
        for (field, rank) in FIELD_RANKS {
            assert!(!field.is_empty());
            assert!(LockRank::ALL.contains(rank));
        }
    }

    #[test]
    fn increasing_acquisitions_are_allowed() {
        let a = RankedMutex::new(LockRank::ServeQueue, 1u32);
        let b = RankedMutex::new(LockRank::FactorCache, 2u32);
        let c = RankedMutex::new(LockRank::RtMailbox, 3u32);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
        #[cfg(debug_assertions)]
        assert_eq!(
            held_ranks(),
            vec![LockRank::ServeQueue, LockRank::FactorCache, LockRank::RtMailbox]
        );
    }

    #[test]
    fn sequential_reacquisition_is_allowed() {
        let m = RankedMutex::new(LockRank::SetupCache, 0u32);
        for i in 0..3 {
            let mut g = m.lock();
            *g = i;
        }
        assert_eq!(m.into_inner(), 2);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn out_of_order_guard_drops_unwind_the_stack() {
        let a = RankedMutex::new(LockRank::ServeSlot, ());
        let b = RankedMutex::new(LockRank::SetupCache, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the *lower* rank first
        #[cfg(debug_assertions)]
        assert_eq!(held_ranks(), vec![LockRank::SetupCache]);
        drop(gb);
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank inversion")]
    fn rank_inversion_panics_in_debug() {
        let outer = RankedMutex::new(LockRank::SetupCache, ());
        let inner = RankedMutex::new(LockRank::FactorCache, ());
        let _g = outer.lock();
        let _g2 = inner.lock(); // 4 held, acquiring 3: inversion
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank inversion")]
    fn same_rank_nesting_panics_in_debug() {
        let a = RankedMutex::new(LockRank::SetupCache, ());
        let b = RankedMutex::new(LockRank::SetupCache, ());
        let _ga = a.lock();
        let _gb = b.lock(); // equal ranks are non-increasing: inversion
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_the_rank() {
        let pair = Arc::new((RankedMutex::new(LockRank::ServeQueue, false), RankedCondvar::new()));
        let waker = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*waker;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        #[cfg(debug_assertions)]
        assert_eq!(held_ranks(), vec![LockRank::ServeQueue]);
        drop(g);
        h.join().expect("waker thread");
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = RankedMutex::new(LockRank::ServeSlot, ());
        let cv = RankedCondvar::new();
        let g = m.lock();
        let (g, res) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(res.timed_out());
        drop(g);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn non_poisoning_after_a_panicked_holder() {
        let m = Arc::new(RankedMutex::new(LockRank::FactorCache, 7u32));
        let m2 = Arc::clone(&m);
        let res = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert!(res.is_err());
        assert_eq!(*m.lock(), 7); // still usable, no poison propagation
    }
}
