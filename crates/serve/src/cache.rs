//! The serve tier's two caches: generic LRU + single-flight + quarantine
//! machinery, the key types, and the named instantiations.
//!
//! Keys identify a factorization completely: dataset id + problem size,
//! kernel bandwidth, regularizer λ, and the tree seed. Values are cheap
//! clone handles (e.g. [`kfds_core::SharedFactor`]), so a cache hit is a
//! map lookup plus a reference-count bump.
//!
//! **Single-flight:** concurrent `get_or_build` calls for the same key
//! block on one builder invocation instead of racing N builds; waiters
//! receive the built handle (counted as hits — they did not pay for the
//! build).
//!
//! **Quarantine:** a builder error (or panic) poisons the key. Subsequent
//! requests fail fast with [`CacheError::Poisoned`] without re-running
//! the builder, so one broken key cannot occupy the workers, and
//! unrelated keys are untouched.

pub use kfds_rt::sync::LockRank;
use kfds_rt::sync::{RankedCondvar, RankedMutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a cache lookup failed.
#[derive(Clone, Debug)]
pub enum CacheError {
    /// This call ran the builder and it failed.
    BuildFailed(String),
    /// The key is quarantined from an earlier failure; the builder was
    /// not re-run.
    Poisoned(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::BuildFailed(e) => write!(f, "factorization build failed: {e}"),
            CacheError::Poisoned(e) => write!(f, "factorization key quarantined: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

enum Slot<V> {
    /// A builder is running on some thread; waiters sleep on the condvar.
    Building,
    Ready {
        value: V,
        last_used: u64,
    },
    Poisoned(String),
}

struct CacheState<Key, V> {
    map: HashMap<Key, Slot<V>>,
    /// Monotonic recency clock for LRU.
    tick: u64,
}

/// LRU + single-flight + quarantine cache, generic over the key. The
/// serve tier instantiates it twice: factor-level (λ included) and
/// setup-level (λ-free). Both levels share this one implementation, so
/// the single-flight and quarantine semantics are identical.
pub struct SingleFlightCache<Key: Clone + Eq + std::hash::Hash, V: Clone> {
    capacity: usize,
    state: RankedMutex<CacheState<Key, V>>,
    cv: RankedCondvar,
    builds: AtomicU64,
}

impl<Key: Clone + Eq + std::hash::Hash, V: Clone> SingleFlightCache<Key, V> {
    /// Creates a cache retaining at most `capacity` ready factorizations
    /// (`capacity` is clamped to ≥ 1) whose state lock carries `rank` in
    /// the [`LockRank`] hierarchy — each instantiation level (factor,
    /// setup) sits at its own rung. Poisoned keys are
    /// quarantine records, not cached values, and do not count against
    /// the capacity.
    pub fn new(capacity: usize, rank: LockRank) -> Self {
        SingleFlightCache {
            capacity: capacity.max(1),
            state: RankedMutex::new(rank, CacheState { map: HashMap::new(), tick: 0 }),
            cv: RankedCondvar::new(),
            builds: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, running `build` exactly once across all concurrent
    /// callers if absent. Returns the handle plus `true` when it was
    /// served without running the builder in this call (a hit — including
    /// single-flight waiters).
    ///
    /// # Errors
    /// [`CacheError::Poisoned`] for quarantined keys (fast-fail, builder
    /// not re-run); [`CacheError::BuildFailed`] when this call's build
    /// errored or panicked (the key becomes quarantined).
    pub fn get_or_build<E: std::fmt::Display>(
        &self,
        key: &Key,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), CacheError> {
        let mut st = self.state.lock();
        loop {
            // Bump the recency clock up front so the Ready arm can borrow
            // the slot mutably without a second lookup.
            st.tick += 1;
            let t = st.tick;
            match st.map.get_mut(key) {
                Some(Slot::Ready { value, last_used }) => {
                    *last_used = t;
                    return Ok((value.clone(), true));
                }
                Some(Slot::Poisoned(e)) => return Err(CacheError::Poisoned(e.clone())),
                Some(Slot::Building) => {
                    st = self.cv.wait(st);
                }
                None => break,
            }
        }
        // We are the builder for this key.
        st.map.insert(key.clone(), Slot::Building);
        drop(st);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let built = catch_unwind(AssertUnwindSafe(build));
        let mut st = self.state.lock();
        let outcome = match built {
            Ok(Ok(v)) => {
                st.tick += 1;
                let t = st.tick;
                st.map.insert(key.clone(), Slot::Ready { value: v.clone(), last_used: t });
                self.evict_lru(&mut st);
                Ok((v, false))
            }
            Ok(Err(e)) => {
                let msg = e.to_string();
                st.map.insert(key.clone(), Slot::Poisoned(msg.clone()));
                Err(CacheError::BuildFailed(msg))
            }
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                st.map.insert(key.clone(), Slot::Poisoned(msg.clone()));
                Err(CacheError::BuildFailed(msg))
            }
        };
        drop(st);
        self.cv.notify_all();
        outcome
    }

    fn evict_lru(&self, st: &mut CacheState<Key, V>) {
        loop {
            let ready: Vec<(&Key, u64)> = st
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((k, *last_used)),
                    _ => None,
                })
                .collect();
            if ready.len() <= self.capacity {
                return;
            }
            // `ready` is nonempty here (len > capacity >= 1), but degrade
            // to a no-op rather than panic on the impossible branch.
            let Some(victim) = ready.iter().min_by_key(|(_, t)| *t).map(|(k, _)| (*k).clone())
            else {
                return;
            };
            st.map.remove(&victim);
        }
    }

    /// Quarantines `key` explicitly (e.g. after a solve panic), so later
    /// requests fail fast instead of re-dispatching onto a bad
    /// factorization.
    pub fn poison(&self, key: &Key, reason: impl Into<String>) {
        let mut st = self.state.lock();
        st.map.insert(key.clone(), Slot::Poisoned(reason.into()));
        drop(st);
        self.cv.notify_all();
    }

    /// Ready factorizations resident.
    pub fn ready_len(&self) -> usize {
        self.state.lock().map.values().filter(|s| matches!(s, Slot::Ready { .. })).count()
    }

    /// Quarantined keys.
    pub fn poisoned_len(&self) -> usize {
        self.state.lock().map.values().filter(|s| matches!(s, Slot::Poisoned(_))).count()
    }

    /// How many times a builder was invoked over the cache's lifetime.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("factorization panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("factorization panicked: {s}")
    } else {
        "factorization panicked".to_string()
    }
}

/// Identity of one factorization: `(dataset id, n, kernel bandwidth, λ,
/// tree seed)`. Float fields are stored as IEEE bit patterns so the key
/// is `Eq + Hash`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FactorKey {
    /// Dataset identifier (the service's builder maps it to points).
    pub dataset: String,
    /// Problem size `N`.
    pub n: usize,
    h_bits: u64,
    lambda_bits: u64,
    /// Seed of the tree / dataset construction.
    pub seed: u64,
}

impl FactorKey {
    /// Builds a key from the plain configuration values.
    pub fn new(dataset: impl Into<String>, n: usize, h: f64, lambda: f64, seed: u64) -> Self {
        FactorKey {
            dataset: dataset.into(),
            n,
            h_bits: h.to_bits(),
            lambda_bits: lambda.to_bits(),
            seed,
        }
    }

    /// Kernel bandwidth.
    pub fn h(&self) -> f64 {
        f64::from_bits(self.h_bits)
    }

    /// Regularizer λ.
    pub fn lambda(&self) -> f64 {
        f64::from_bits(self.lambda_bits)
    }
}

impl std::fmt::Display for FactorKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[n={}, h={}, lambda={}, seed={}]",
            self.dataset,
            self.n,
            self.h(),
            self.lambda(),
            self.seed
        )
    }
}

/// The λ-free prefix of a [`FactorKey`]: everything that identifies the
/// expensive, λ-independent setup (tree + kNN + skeletonization + kernel
/// block assembly). A λ-sweep maps many `FactorKey`s onto one `SetupKey`,
/// which is exactly what the two-level cache exploits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SetupKey {
    /// Dataset identifier (the service's builder maps it to points).
    pub dataset: String,
    /// Problem size `N`.
    pub n: usize,
    h_bits: u64,
    /// Seed of the tree / dataset construction.
    pub seed: u64,
}

impl SetupKey {
    /// Builds a key from the plain configuration values.
    pub fn new(dataset: impl Into<String>, n: usize, h: f64, seed: u64) -> Self {
        SetupKey { dataset: dataset.into(), n, h_bits: h.to_bits(), seed }
    }

    /// Kernel bandwidth.
    pub fn h(&self) -> f64 {
        f64::from_bits(self.h_bits)
    }
}

impl From<&FactorKey> for SetupKey {
    /// Drops the λ component: factor keys that differ only in λ share a
    /// setup entry.
    fn from(k: &FactorKey) -> Self {
        SetupKey { dataset: k.dataset.clone(), n: k.n, h_bits: k.h_bits, seed: k.seed }
    }
}

impl std::fmt::Display for SetupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[n={}, h={}, seed={}]", self.dataset, self.n, self.h(), self.seed)
    }
}

/// The λ-level factorization cache (the historical name).
pub type FactorCache<V> = SingleFlightCache<FactorKey, V>;

/// The λ-free setup cache (skeleton tree + assembled blocks).
pub type SetupCache<V> = SingleFlightCache<SetupKey, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn key(name: &str) -> FactorKey {
        FactorKey::new(name, 128, 1.0, 0.5, 7)
    }

    #[test]
    fn hit_after_build_and_float_key_roundtrip() {
        let c: FactorCache<u64> = FactorCache::new(2, LockRank::FactorCache);
        let (v, hit) = c.get_or_build(&key("a"), || Ok::<_, String>(41)).expect("build");
        assert_eq!((v, hit), (41, false));
        let (v, hit) = c.get_or_build(&key("a"), || Ok::<_, String>(99)).expect("hit");
        assert_eq!((v, hit), (41, true));
        assert_eq!(c.builds(), 1);
        assert_eq!(key("a").h(), 1.0);
        assert_eq!(key("a").lambda(), 0.5);
    }

    #[test]
    fn single_flight_builds_once_under_contention() {
        let c: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(2, LockRank::FactorCache));
        let calls = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let calls = Arc::clone(&calls);
                s.spawn(move || {
                    let (v, _) = c
                        .get_or_build(&key("contended"), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok::<_, String>(7)
                        })
                        .expect("get");
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "builder must run exactly once");
    }

    #[test]
    fn failed_build_quarantines_without_rerun() {
        let c: FactorCache<u64> = FactorCache::new(2, LockRank::FactorCache);
        let err = c.get_or_build(&key("bad"), || Err::<u64, _>("boom")).unwrap_err();
        assert!(matches!(err, CacheError::BuildFailed(_)));
        let err = c.get_or_build(&key("bad"), || Ok::<_, String>(1)).unwrap_err();
        assert!(matches!(err, CacheError::Poisoned(_)), "second call must fast-fail");
        assert_eq!(c.builds(), 1, "builder must not re-run for a poisoned key");
        assert_eq!(c.poisoned_len(), 1);
        // Unrelated keys are unaffected.
        let (v, _) = c.get_or_build(&key("good"), || Ok::<_, String>(5)).expect("good key");
        assert_eq!(v, 5);
    }

    #[test]
    fn panicking_build_quarantines() {
        let c: FactorCache<u64> = FactorCache::new(2, LockRank::FactorCache);
        let err = c.get_or_build(&key("p"), || -> Result<u64, String> { panic!("kaboom") });
        assert!(matches!(err, Err(CacheError::BuildFailed(m)) if m.contains("kaboom")));
        assert!(matches!(
            c.get_or_build(&key("p"), || Ok::<_, String>(1)),
            Err(CacheError::Poisoned(_))
        ));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: FactorCache<u64> = FactorCache::new(2, LockRank::FactorCache);
        for (i, name) in ["a", "b"].iter().enumerate() {
            c.get_or_build(&key(name), || Ok::<_, String>(i as u64)).expect("seed");
        }
        // Touch "a" so "b" is the LRU victim.
        c.get_or_build(&key("a"), || Ok::<_, String>(99)).expect("touch");
        c.get_or_build(&key("c"), || Ok::<_, String>(2)).expect("insert c");
        assert_eq!(c.ready_len(), 2);
        assert_eq!(c.builds(), 3);
        // "a" must still be resident (hit), "b" must rebuild.
        let (_, hit_a) = c.get_or_build(&key("a"), || Ok::<_, String>(0)).expect("a");
        assert!(hit_a, "recently used entry must survive eviction");
        let (_, hit_b) = c.get_or_build(&key("b"), || Ok::<_, String>(1)).expect("b");
        assert!(!hit_b, "LRU entry must have been evicted");
    }
}
