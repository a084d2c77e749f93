//! Loom model tests for the shard tier's concurrent core (extending the
//! `crates/serve/tests/loom_models.rs` patterns): router shutdown never
//! loses a ticket, and a p-shard scatter/gather completes exactly once
//! per request.
//!
//! Under the offline `shims/loom` stand-in, `model` runs each body
//! `LOOM_ITERS` times (default 64) with deterministically staggered
//! thread startup — a bounded stress search. The (expensive) fixture
//! factorization is built once outside the model and shared through the
//! O(1)-clone [`SharedFactor`] handle, so each iteration only exercises
//! the router's concurrency, not the numerics.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{SharedFactor, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_la::Mat;
use kfds_shard::{ShardError, ShardRouter};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use loom::thread;
use std::sync::Arc;

const P: usize = 2;
const NRHS: usize = 2;

fn fixture() -> (SharedFactor<Gaussian>, Mat, Mat) {
    let n = 128;
    let pts = normal_embedded(n, 3, 4, 0.05, 37);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&pts, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-4).with_max_rank(24).with_neighbors(6).with_max_level(1),
    );
    let sf = SharedFactor::factorize(
        Arc::new(st),
        Arc::new(kernel),
        SolverConfig::default().with_lambda(1.0).with_storage(StorageMode::StoredGemv),
    )
    .expect("fixture factorization");
    let mut rhs = Mat::zeros(n, NRHS);
    for j in 0..NRHS {
        for (i, v) in rhs.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 2) + 5) % 23) as f64 / 23.0 - 0.5;
        }
    }
    let mut expect = rhs.clone();
    sf.factor_tree().solve_mat_in_place(&mut expect).expect("reference solve");
    (sf, rhs, expect)
}

#[test]
fn router_shutdown_never_loses_a_ticket() {
    // Concurrent solves race shutdown: each call must return either the
    // full (bitwise-correct) answer or ShuttingDown — never hang (the
    // model run itself asserts that: a lost scatter/gather leg deadlocks
    // the joins) and never a torn half-solve.
    let (sf, rhs, expect) = fixture();
    let sf = Arc::new(sf);
    let rhs = Arc::new(rhs);
    let expect = Arc::new(expect);
    loom::model(move || {
        let router: Arc<ShardRouter<Gaussian>> = Arc::new(ShardRouter::start(P));
        let solvers: Vec<_> = (0..2)
            .map(|_| {
                let router = Arc::clone(&router);
                let sf = Arc::clone(&sf);
                let rhs = Arc::clone(&rhs);
                let expect = Arc::clone(&expect);
                thread::spawn(move || {
                    let mut b = (*rhs).clone();
                    match router.solve(&sf, &mut b) {
                        Ok(()) => {
                            for j in 0..NRHS {
                                assert_eq!(
                                    b.col(j),
                                    expect.col(j),
                                    "a solve that won the race must be exact"
                                );
                            }
                        }
                        Err(ShardError::ShuttingDown) => {}
                        Err(other) => panic!("impossible outcome: {other}"),
                    }
                })
            })
            .collect();
        let shutter = {
            let router = Arc::clone(&router);
            thread::spawn(move || router.shutdown())
        };
        for h in solvers {
            h.join().expect("solver thread");
        }
        shutter.join().expect("shutdown thread");
        // Idempotent after the race, and firmly closed.
        router.shutdown();
        let mut b = (*rhs).clone();
        assert!(matches!(router.solve(&sf, &mut b), Err(ShardError::ShuttingDown)));
    });
}

#[test]
fn scatter_gather_completes_exactly_once_per_request() {
    // Concurrent solves on one factor: every request must run the
    // scatter/gather protocol exactly once per shard (the router-side
    // gather counts exactly p legs; the outcome record's swap assert
    // fires on any double completion).
    let (sf, rhs, expect) = fixture();
    let sf = Arc::new(sf);
    let rhs = Arc::new(rhs);
    let expect = Arc::new(expect);
    loom::model(move || {
        let router: Arc<ShardRouter<Gaussian>> = Arc::new(ShardRouter::start(P));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let router = Arc::clone(&router);
                let sf = Arc::clone(&sf);
                let rhs = Arc::clone(&rhs);
                let expect = Arc::clone(&expect);
                thread::spawn(move || {
                    let mut b = (*rhs).clone();
                    router.solve(&sf, &mut b).expect("routed solve");
                    for j in 0..NRHS {
                        assert_eq!(b.col(j), expect.col(j));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("solver thread");
        }
        for lane in router.stats() {
            assert_eq!(lane.requests, 3, "every request reaches every shard exactly once");
            assert_eq!(lane.errors, 0);
            assert_eq!(lane.rows_solved, 3 * (128 / P as u64) * NRHS as u64);
        }
        router.shutdown();
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
    use kfds_rt::sync::{LockRank, RankedMutex};
    loom::model(|| {
        let hi = Arc::new(RankedMutex::new(LockRank::ShardOutcome, ()));
        let lo = Arc::new(RankedMutex::new(LockRank::RouterDataPlane, ()));
        let h = {
            let hi = Arc::clone(&hi);
            let lo = Arc::clone(&lo);
            thread::spawn(move || {
                let _outer = hi.lock();
                let _inner = lo.lock(); // ShardOutcome > RouterDataPlane: inversion
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
