//! End-to-end service tests: batched answers must match direct solves,
//! backpressure must reject cleanly while accepted work completes,
//! broken keys must quarantine without harming other keys, and queued
//! requests must honor their deadlines.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{LeafFactorization, SharedFactor, SharedSetup, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_serve::{FactorKey, ServeConfig, ServeError, SetupKey, SolveService};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn build_factor(key: &FactorKey) -> Result<SharedFactor<Gaussian>, ServeError> {
    let pts = normal_embedded(key.n, 3, 8, 0.05, key.seed);
    let kernel = Gaussian::new(key.h());
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8).with_max_level(1),
    );
    let cfg =
        SolverConfig::default().with_lambda(key.lambda()).with_storage(StorageMode::StoredGemv);
    SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg)
        .map_err(|e| ServeError::FactorizationFailed(e.to_string()))
}

fn rhs(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + ((i * 13 + seed * 7) % 17) as f64 / 17.0).collect()
}

#[test]
fn batched_answers_match_direct_solves() {
    let n = 512;
    let key = FactorKey::new("t-batch", n, 1.0, 0.5, 3);
    let svc =
        SolveService::start(ServeConfig::default().with_workers(2).with_max_batch(8), build_factor);

    // Reference: solve directly against the same factorization.
    let sf = build_factor(&key).expect("reference factor");
    let tree_perm = sf.skeleton_tree().tree();

    let nreq = 24;
    let tickets: Vec<_> =
        (0..nreq).map(|r| svc.submit(key.clone(), rhs(n, r)).expect("submit")).collect();
    for (r, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("batched solve");
        let mut want = tree_perm.permute_vec(&rhs(n, r));
        sf.solve_in_place(&mut want).expect("direct solve");
        let want = tree_perm.unpermute_vec(&want);
        let err: f64 = got.iter().zip(&want).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
            / want.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-12, "request {r}: service answer differs from direct solve ({err:.3e})");
    }

    let stats = svc.shutdown();
    assert_eq!(stats.completed, nreq as u64);
    assert_eq!(stats.errors, 0);
    assert!(stats.cache_hit_rate() > 0.0, "repeated same-key requests must hit the cache");
    assert_eq!(svc_builds_sanity(&stats), 1, "one key must mean one factorization build");
}

#[test]
fn non_finite_request_is_rejected_and_its_batch_mates_are_unaffected() {
    let n = 512;
    let key = FactorKey::new("t-nan", n, 1.0, 0.5, 3);
    let svc =
        SolveService::start(ServeConfig::default().with_workers(1).with_max_batch(8), build_factor);
    // While the one worker is busy building a factorization (the first
    // request on a key), everything submitted behind it queues up and is
    // drained as one same-key batch.
    let submit_behind_a_build = |blocker: FactorKey, batch: Vec<Vec<f64>>| {
        let first = svc.submit(blocker, rhs(n, 99)).expect("submit blocker");
        let tickets: Vec<_> =
            batch.into_iter().map(|b| svc.submit(key.clone(), b).expect("submit")).collect();
        first.wait().expect("blocker solve");
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    };

    let poisoned = 3;
    let mut eight: Vec<Vec<f64>> = (0..8).map(|r| rhs(n, r)).collect();
    eight[poisoned][n / 2] = f64::NAN;
    let mixed = submit_behind_a_build(key.clone(), eight.clone());
    eight.remove(poisoned);
    let alone = submit_behind_a_build(FactorKey::new("t-nan-other", n, 1.0, 0.5, 5), eight);

    match &mixed[poisoned] {
        Err(ServeError::BadRequest(msg)) => assert!(msg.contains("not finite"), "{msg}"),
        other => panic!("a NaN right-hand side must be a BadRequest, got {other:?}"),
    }
    let served = mixed.iter().enumerate().filter(|(r, _)| *r != poisoned).map(|(_, a)| a);
    for (r, (got, want)) in served.zip(&alone).enumerate() {
        let (got, want) = (got.as_ref().expect("batch-mate"), want.as_ref().expect("alone"));
        assert!(got.iter().all(|v| v.is_finite()));
        assert_eq!(got, want, "batch-mate {r} must not see the rejected request");
    }
    // An infinity is caught the same way.
    let mut inf = rhs(n, 1);
    inf[0] = f64::INFINITY;
    let t = svc.submit(key.clone(), inf).expect("submit inf");
    assert!(matches!(t.wait(), Err(ServeError::BadRequest(_))));

    let stats = svc.shutdown();
    assert_eq!(stats.errors, 2, "each rejected request counts as one error");
    assert_eq!(stats.completed, 2 + 7 + 7);
}

fn svc_builds_sanity(stats: &kfds_serve::ServeStats) -> u64 {
    stats.cache_misses
}

#[test]
fn flooding_yields_overloaded_while_accepted_requests_complete() {
    let n = 256;
    let key = FactorKey::new("t-flood", n, 1.0, 0.5, 5);
    let svc = SolveService::start(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(4)
            .with_high_water(4)
            .with_linger(Duration::ZERO),
        |key: &FactorKey| {
            // A slow build keeps the single worker busy so the flood below
            // races only the bounded queue, not the solve throughput.
            std::thread::sleep(Duration::from_millis(150));
            build_factor(key)
        },
    );

    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for r in 0..64 {
        match svc.submit(key.clone(), rhs(n, r)) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { depth }) => {
                assert!(depth >= 4, "rejection must report the high-water depth");
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected > 0, "flooding a high-water of 4 with 64 requests must reject some");
    assert!(!accepted.is_empty(), "backpressure must not reject everything");

    for (i, t) in accepted.into_iter().enumerate() {
        let x = t.wait().unwrap_or_else(|e| panic!("accepted request {i} failed: {e}"));
        assert_eq!(x.len(), n);
        assert!(x.iter().all(|v| v.is_finite()));
    }
    let stats = svc.shutdown();
    assert_eq!(stats.rejected_overload, rejected as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn failing_key_is_quarantined_and_other_keys_still_serve() {
    let n = 256;
    let bad = FactorKey::new("t-bad", n, 1.0, 0.5, 7);
    let good = FactorKey::new("t-good", n, 1.0, 0.5, 9);
    let bad_builds = Arc::new(AtomicUsize::new(0));
    let bb = Arc::clone(&bad_builds);
    let svc =
        SolveService::start(ServeConfig::default().with_workers(2), move |key: &FactorKey| {
            if key.dataset == "t-bad" {
                bb.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::FactorizationFailed("synthetic build failure".into()))
            } else {
                build_factor(key)
            }
        });

    // First request on the bad key races the failing build.
    let t = svc.submit(bad.clone(), rhs(n, 0)).expect("submit bad");
    match t.wait() {
        Err(ServeError::FactorizationFailed(m) | ServeError::Quarantined(m)) => {
            assert!(m.contains("synthetic build failure"), "cause must propagate: {m}");
        }
        other => panic!("bad key must fail, got {other:?}"),
    }
    // Later requests fast-fail on the quarantine without re-building.
    let t = svc.submit(bad.clone(), rhs(n, 1)).expect("submit bad again");
    assert!(matches!(t.wait(), Err(ServeError::Quarantined(_))), "quarantined key must fast-fail");
    assert_eq!(bad_builds.load(Ordering::SeqCst), 1, "failing builder must not be re-run");

    // Unrelated keys keep being served.
    let t = svc.submit(good.clone(), rhs(n, 2)).expect("submit good");
    let x = t.wait().expect("good key must still solve");
    assert!(x.iter().all(|v| v.is_finite()));

    let stats = svc.shutdown();
    assert_eq!(stats.cache_poisoned, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn queued_request_past_deadline_is_expired_not_solved() {
    let n = 256;
    let slow = FactorKey::new("t-slow", n, 1.0, 0.5, 11);
    let quick = FactorKey::new("t-quick", n, 1.0, 0.5, 13);
    let svc = SolveService::start(
        ServeConfig::default().with_workers(1).with_linger(Duration::ZERO),
        |key: &FactorKey| {
            if key.dataset == "t-slow" {
                std::thread::sleep(Duration::from_millis(300));
            }
            build_factor(key)
        },
    );

    // Occupy the only worker with the slow build, then queue a request
    // whose deadline will lapse before the worker gets back to it.
    let t_slow = svc.submit(slow, rhs(n, 0)).expect("submit slow");
    std::thread::sleep(Duration::from_millis(20));
    let t_late = svc
        .submit_with_timeout(quick, rhs(n, 1), Duration::from_millis(1))
        .expect("submit short-deadline");

    assert!(
        matches!(t_late.wait(), Err(ServeError::DeadlineExceeded)),
        "request queued past its deadline must expire"
    );
    t_slow.wait().expect("slow-key request must still complete");
    let stats = svc.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 1);
}

fn build_setup(key: &SetupKey) -> Result<SharedSetup<Gaussian>, ServeError> {
    let pts = normal_embedded(key.n, 3, 8, 0.05, key.seed);
    let kernel = Gaussian::new(key.h());
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8).with_max_level(1),
    );
    Ok(SharedSetup::build(Arc::new(st), Arc::new(kernel)))
}

#[test]
fn lambda_sweep_through_two_level_cache_builds_setup_once() {
    let n = 512;
    let setup_builds = Arc::new(AtomicUsize::new(0));
    let sb = Arc::clone(&setup_builds);
    let svc = SolveService::start_two_level(
        ServeConfig::default().with_workers(2).with_cache_capacity(8),
        SolverConfig::default().with_storage(StorageMode::StoredGemv),
        move |key: &SetupKey| {
            sb.fetch_add(1, Ordering::SeqCst);
            build_setup(key)
        },
    );

    // An 8-λ sweep over one (dataset, n, h, seed): every key after the
    // first must reuse the cached setup and pay only refactorization.
    let lambdas = [1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0];
    let keys: Vec<FactorKey> =
        lambdas.iter().map(|&l| FactorKey::new("t-sweep", n, 1.0, l, 21)).collect();
    for (r, key) in keys.iter().enumerate() {
        let got = svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("solve");
        // Bitwise against the legacy single-level build for this key,
        // through the same blocked solve path the service dispatches: the
        // two-level service must not change a single answered byte.
        let sf = build_factor(key).expect("reference factor");
        let tree_perm = sf.skeleton_tree().tree();
        let mut b = kfds_la::Mat::zeros(n, 1);
        b.col_mut(0).copy_from_slice(&tree_perm.permute_vec(&rhs(n, r)));
        sf.solve_block_in_place(&mut b, &kfds_krylov::GmresOptions::default())
            .expect("direct solve");
        let want = tree_perm.unpermute_vec(b.col(0));
        assert_eq!(got, want, "λ={} must match the single-level answer bitwise", key.lambda());
    }

    let stats = svc.shutdown();
    assert_eq!(setup_builds.load(Ordering::SeqCst), 1, "one setup build for the whole λ sweep");
    assert_eq!(stats.setup_builds, 1);
    assert_eq!(stats.full_misses, 1, "only the first λ pays the full build");
    assert_eq!(stats.setup_hits, lambdas.len() as u64 - 1);
    assert_eq!(stats.setup_hits + stats.full_misses, stats.cache_misses);
    assert_eq!(stats.errors, 0);
}

#[test]
fn factor_quarantine_does_not_poison_setup() {
    let n = 256;
    let setup_builds = Arc::new(AtomicUsize::new(0));
    let sb = Arc::clone(&setup_builds);
    // Cholesky leaves reject the indefinite λ = -1e3 shift, so that one λ
    // fails to refactorize while its siblings succeed.
    let svc = SolveService::start_two_level(
        ServeConfig::default().with_workers(2),
        SolverConfig::default()
            .with_storage(StorageMode::StoredGemv)
            .with_leaf(LeafFactorization::Cholesky),
        move |key: &SetupKey| {
            sb.fetch_add(1, Ordering::SeqCst);
            build_setup(key)
        },
    );

    let good = FactorKey::new("t-poison", n, 1.0, 0.5, 23);
    let bad = FactorKey::new("t-poison", n, 1.0, -1e3, 23);

    let x = svc.submit(good.clone(), rhs(n, 0)).expect("submit").wait().expect("good λ solves");
    assert!(x.iter().all(|v| v.is_finite()));

    let t = svc.submit(bad.clone(), rhs(n, 1)).expect("submit bad λ");
    assert!(
        matches!(t.wait(), Err(ServeError::FactorizationFailed(_))),
        "indefinite λ must fail its refactorization"
    );
    // The λ key is quarantined; a retry fast-fails without a rebuild.
    let t = svc.submit(bad, rhs(n, 2)).expect("resubmit bad λ");
    assert!(matches!(t.wait(), Err(ServeError::Quarantined(_))));

    // The setup entry survived the factor-level failure: a *third* λ on
    // the same setup still serves without a new setup build.
    let another = FactorKey::new("t-poison", n, 1.0, 1.5, 23);
    let x = svc.submit(another, rhs(n, 3)).expect("submit").wait().expect("sibling λ still serves");
    assert!(x.iter().all(|v| v.is_finite()));

    let stats = svc.shutdown();
    assert_eq!(setup_builds.load(Ordering::SeqCst), 1, "setup must never rebuild");
    assert_eq!(stats.cache_poisoned, 1, "only the failing λ key is quarantined");
    assert_eq!(stats.setup_entries, 1, "the setup entry must survive");
    assert_eq!(stats.completed, 2);
}

#[test]
fn shutdown_answers_pending_requests() {
    let n = 256;
    let key = FactorKey::new("t-shutdown", n, 1.0, 0.5, 17);
    let svc = SolveService::start(ServeConfig::default().with_workers(1), |key: &FactorKey| {
        std::thread::sleep(Duration::from_millis(100));
        build_factor(key)
    });
    let t1 = svc.submit(key.clone(), rhs(n, 0)).expect("submit");
    let stats = svc.shutdown();
    // The in-flight request either completed before the workers exited or
    // was drained with ShuttingDown — it must not hang.
    match t1.wait() {
        Ok(x) => assert_eq!(x.len(), n),
        Err(ServeError::ShuttingDown) => {}
        Err(e) => panic!("unexpected shutdown answer: {e}"),
    }
    assert_eq!(stats.errors, 0);
}
