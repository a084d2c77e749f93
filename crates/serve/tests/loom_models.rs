//! Loom model tests for the concurrent core of `kfds-serve`: the
//! single-flight [`FactorCache`] (build / quarantine / evict
//! interleavings), the worker-queue shutdown path of [`SolveService`],
//! and the debug-build lock-rank checker under concurrency.
//!
//! The tests are written against loom's portable API (`loom::model`,
//! `loom::thread`, `loom::sync`). Under the offline `shims/loom`
//! stand-in, `model` runs each body `LOOM_ITERS` times (default 64) with
//! deterministically staggered thread startup — a bounded stress search.
//! Pointing the workspace `loom` dependency at the real crate upgrades
//! them to exhaustive interleaving enumeration without edits.

use kfds_kernels::Gaussian;
use kfds_serve::{
    CacheError, FactorCache, FactorKey, LockRank, ServeConfig, ServeError, SetupCache, SetupKey,
    SolveService,
};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

fn key(name: &str) -> FactorKey {
    FactorKey::new(name, 64, 1.0, 0.5, 7)
}

#[test]
fn single_flight_builds_exactly_once_under_races() {
    loom::model(|| {
        let cache: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(2, LockRank::FactorCache));
        let calls = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                thread::spawn(move || {
                    let (v, _hit) = cache
                        .get_or_build(&key("sf"), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, String>(42)
                        })
                        .expect("build succeeds");
                    assert_eq!(v, 42, "every requester sees the built value");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("requester");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "builder ran more than once");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.ready_len(), 1);
    });
}

#[test]
fn panicking_build_quarantines_exactly_once() {
    // The builder panics. Whatever the interleaving of the concurrent
    // requesters:
    //   * the builder runs exactly once (single-flight holds across the
    //     unwind);
    //   * exactly one requester observes `BuildFailed` (the one that ran
    //     the builder), every other one `Poisoned`;
    //   * the key ends quarantined, not absent and not `Building` (a
    //     `Building` residue would deadlock all future requesters).
    loom::model(|| {
        let cache: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(2, LockRank::FactorCache));
        let build_failed = Arc::new(AtomicUsize::new(0));
        let poisoned = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let build_failed = Arc::clone(&build_failed);
                let poisoned = Arc::clone(&poisoned);
                thread::spawn(move || {
                    match cache
                        .get_or_build(&key("boom"), || -> Result<u64, String> { panic!("model") })
                    {
                        Err(CacheError::BuildFailed(_)) => {
                            build_failed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(CacheError::Poisoned(_)) => {
                            poisoned.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(_) => panic!("a panicking builder cannot produce a value"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("requester");
        }
        assert_eq!(cache.builds(), 1, "single-flight must hold across the unwind");
        assert_eq!(build_failed.load(Ordering::SeqCst), 1, "exactly one builder failure");
        assert_eq!(poisoned.load(Ordering::SeqCst), 2, "waiters must fast-fail");
        assert_eq!(cache.poisoned_len(), 1, "the key is quarantined exactly once");
        assert_eq!(cache.ready_len(), 0);
        // A late requester fast-fails without re-running the builder.
        assert!(matches!(
            cache.get_or_build(&key("boom"), || Ok::<_, String>(1)),
            Err(CacheError::Poisoned(_))
        ));
        assert_eq!(cache.builds(), 1);
    });
}

#[test]
fn lru_capacity_invariant_under_concurrent_inserts() {
    loom::model(|| {
        let cache: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(2, LockRank::FactorCache));
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let name = format!("k{i}");
                    cache.get_or_build(&key(&name), || Ok::<_, String>(i)).expect("insert");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("inserter");
        }
        assert_eq!(cache.builds(), 3, "distinct keys never coalesce");
        assert!(
            cache.ready_len() <= 2,
            "eviction must keep residency at capacity, found {}",
            cache.ready_len()
        );
    });
}

#[test]
fn two_level_lambda_miss_storm_builds_setup_once() {
    // The two-level nesting the service dispatches: a factor-cache miss
    // resolves the λ-free setup through an inner SetupCache before
    // "refactorizing". Three threads miss simultaneously on *distinct* λ
    // keys that share one setup key — whatever the interleaving, the
    // setup builder runs exactly once (neither cache holds its lock while
    // a builder runs, so the nesting cannot deadlock, and the inner
    // single-flight coalesces the storm).
    loom::model(|| {
        let setups: Arc<SetupCache<u64>> = Arc::new(SetupCache::new(2, LockRank::SetupCache));
        let factors: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(4, LockRank::FactorCache));
        let setup_builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let setups = Arc::clone(&setups);
                let factors = Arc::clone(&factors);
                let setup_builds = Arc::clone(&setup_builds);
                thread::spawn(move || {
                    let fk = FactorKey::new("storm", 64, 1.0, 0.1 * (i + 1) as f64, 7);
                    let (v, _hit) = factors
                        .get_or_build(&fk, || -> Result<u64, String> {
                            let sk = SetupKey::from(&fk);
                            let (setup, _) = setups
                                .get_or_build(&sk, || {
                                    setup_builds.fetch_add(1, Ordering::SeqCst);
                                    Ok::<_, String>(1000)
                                })
                                .map_err(|e| e.to_string())?;
                            Ok(setup + i)
                        })
                        .expect("two-level build succeeds");
                    assert_eq!(v, 1000 + i, "each λ gets its own factorization");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("requester");
        }
        assert_eq!(setup_builds.load(Ordering::SeqCst), 1, "one setup build under the storm");
        assert_eq!(setups.builds(), 1);
        assert_eq!(factors.builds(), 3, "distinct λ keys never coalesce at the factor level");
        assert_eq!(setups.ready_len(), 1);
    });
}

#[test]
fn two_level_factor_failure_poisons_only_the_lambda_key() {
    // One λ's refactorization fails while a sibling λ succeeds, in either
    // order: the factor-level quarantine must never leak into the setup
    // cache — the setup entry stays ready and keeps serving new λ keys.
    loom::model(|| {
        let setups: Arc<SetupCache<u64>> = Arc::new(SetupCache::new(2, LockRank::SetupCache));
        let factors: Arc<FactorCache<u64>> = Arc::new(FactorCache::new(4, LockRank::FactorCache));
        let refactor = |factors: &FactorCache<u64>,
                        setups: &SetupCache<u64>,
                        lambda: f64,
                        fail: bool|
         -> Result<(u64, bool), CacheError> {
            let fk = FactorKey::new("quarantine", 64, 1.0, lambda, 7);
            factors.get_or_build(&fk, || -> Result<u64, String> {
                let sk = SetupKey::from(&fk);
                let (setup, _) = setups
                    .get_or_build(&sk, || Ok::<_, String>(1000))
                    .map_err(|e| e.to_string())?;
                if fail {
                    return Err("indefinite shift".into());
                }
                Ok(setup)
            })
        };
        let bad = {
            let setups = Arc::clone(&setups);
            let factors = Arc::clone(&factors);
            thread::spawn(move || {
                assert!(
                    matches!(
                        refactor(&factors, &setups, -1e3, true),
                        Err(CacheError::BuildFailed(_))
                    ),
                    "the failing λ must report its build failure"
                );
            })
        };
        let good = {
            let setups = Arc::clone(&setups);
            let factors = Arc::clone(&factors);
            thread::spawn(move || {
                let (v, _) = refactor(&factors, &setups, 0.5, false).expect("sibling λ serves");
                assert_eq!(v, 1000);
            })
        };
        bad.join().expect("bad λ");
        good.join().expect("good λ");
        assert_eq!(factors.poisoned_len(), 1, "only the failing λ key is quarantined");
        assert_eq!(setups.poisoned_len(), 0, "the setup cache must stay clean");
        assert_eq!(setups.ready_len(), 1, "the setup entry must survive");
        // A third λ on the same setup still serves, with no setup rebuild.
        let (v, _) = refactor(&factors, &setups, 2.0, false).expect("late λ serves");
        assert_eq!(v, 1000);
        assert_eq!(setups.builds(), 1, "the setup must never rebuild");
    });
}

#[test]
fn shutdown_never_loses_a_ticket() {
    // Submitted tickets race service shutdown: the workers may answer
    // them (here: with the builder's failure), or the shutdown drain may
    // answer them `ShuttingDown` — but every ticket MUST resolve. A lost
    // ticket hangs `wait()` forever, so the model run itself is the
    // assertion; the match documents the only legal outcomes.
    loom::model(|| {
        let svc = SolveService::<Gaussian>::start_two_level(
            ServeConfig::default().with_workers(2).with_cache_capacity(2),
            kfds_core::SolverConfig::default(),
            |_key| Err(ServeError::FactorizationFailed("model builder always fails".into())),
        );
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                let k = if i % 2 == 0 { key("a") } else { key("b") };
                svc.submit(k, vec![1.0; 4]).expect("queue is far below high water")
            })
            .collect();
        let shutter = thread::spawn(move || svc.shutdown());
        for t in tickets {
            match t.wait() {
                Err(ServeError::FactorizationFailed(_))
                | Err(ServeError::Quarantined(_))
                | Err(ServeError::ShuttingDown) => {}
                other => panic!("ticket resolved to an impossible outcome: {other:?}"),
            }
        }
        let stats = shutter.join().expect("shutdown");
        assert_eq!(stats.queue_depth, 0, "shutdown must drain the queue");
    });
}

#[test]
fn rank_inversion_is_caught_by_the_runtime_checker() {
    // Seeded lock-order inversion: the debug-build held-rank stack in
    // `kfds_rt::sync` must panic ("lock-rank inversion") on the thread
    // that acquires against the hierarchy, under concurrency — the
    // runtime backstop behind the static `rule_lock_discipline` lint. In
    // release builds the checker compiles out and the nesting is merely
    // a (deadlock-free, single-threaded here) pair of acquisitions.
    use kfds_rt::sync::RankedMutex;
    loom::model(|| {
        let hi = Arc::new(RankedMutex::new(LockRank::SetupCache, ()));
        let lo = Arc::new(RankedMutex::new(LockRank::FactorCache, ()));
        let h = {
            let hi = Arc::clone(&hi);
            let lo = Arc::clone(&lo);
            thread::spawn(move || {
                let _outer = hi.lock();
                let _inner = lo.lock(); // SetupCache > FactorCache: inversion
            })
        };
        let res = h.join();
        if cfg!(debug_assertions) {
            assert!(res.is_err(), "rank inversion must panic the acquiring thread in debug");
        } else {
            assert!(res.is_ok(), "release builds compile the checker out");
        }
        // The hierarchy-respecting direction must stay clean either way.
        let _a = lo.lock();
        let _b = hi.lock();
    });
}
