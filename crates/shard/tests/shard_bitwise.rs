//! Routed (scatter/gather) sharded solves must be bitwise-identical to
//! the single-node blocked solve, for p ∈ {1, 2, 4}, across λ and RHS
//! widths — the end-to-end form of `kfds-core`'s partition property,
//! with the answer actually traveling the transport.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{SharedFactor, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_la::Mat;
use kfds_shard::{ShardError, ShardRouter};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use proptest::prelude::*;
use std::sync::Arc;

fn shared_factor(lambda: f64) -> SharedFactor<Gaussian> {
    let n = 512;
    let pts = normal_embedded(n, 3, 6, 0.05, 31);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8).with_max_level(1),
    );
    SharedFactor::factorize(
        Arc::new(st),
        Arc::new(kernel),
        SolverConfig::default().with_lambda(lambda).with_storage(StorageMode::StoredGemv),
    )
    .expect("fixture factorization")
}

fn rhs_matrix(n: usize, nrhs: usize, salt: usize) -> Mat {
    let mut b = Mat::zeros(n, nrhs);
    for j in 0..nrhs {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 5) + 13 * salt + 3) % 41) as f64 / 41.0 - 0.5;
        }
    }
    b
}

#[test]
fn routed_solve_is_bitwise_identical_for_p_1_2_4() {
    // Two factors through one router: each request is solved on the
    // handle it came with, and the router keeps neither.
    let (a, b) = (shared_factor(0.5), shared_factor(2.0));
    for p in [1usize, 2, 4] {
        let router: ShardRouter<Gaussian> = ShardRouter::start(p);
        for (sf, salt, nrhs) in [(&a, 0usize, 1usize), (&a, 1, 4), (&b, 2, 7)] {
            let mut routed = rhs_matrix(sf.n(), nrhs, salt);
            let mut single = routed.clone();
            router.solve(sf, &mut routed).expect("routed solve");
            sf.factor_tree().solve_mat_in_place(&mut single).expect("single-node solve");
            for j in 0..nrhs {
                assert_eq!(
                    routed.col(j),
                    single.col(j),
                    "p={p} nrhs={nrhs}: routed and single-node answers diverge in column {j}"
                );
            }
            assert_eq!(sf.handle_count(), 1, "p={p}: a finished solve leaves no handle behind");
        }
        for lane in router.stats() {
            assert_eq!(lane.requests, 3);
            assert_eq!(lane.errors, 0);
        }
        router.shutdown();
        assert_eq!(a.handle_count(), 1, "p={p}: the router retains nothing");
        assert_eq!(b.handle_count(), 1, "p={p}: the router retains nothing");
        assert!(matches!(
            router.solve(&a, &mut rhs_matrix(a.n(), 1, 0)),
            Err(ShardError::ShuttingDown)
        ));
    }
}

#[test]
fn unpartitionable_factor_is_reported_not_dispatched() {
    let sf = shared_factor(0.5);
    // 512 points with 64-point leaves: depth 3, so 16 shards have no cut.
    let router: ShardRouter<Gaussian> = ShardRouter::start(16);
    let mut b = rhs_matrix(sf.n(), 2, 0);
    let before = b.clone();
    match router.solve(&sf, &mut b) {
        Err(ShardError::Unpartitionable(_)) => {}
        other => panic!("expected Unpartitionable, got {other:?}"),
    }
    for j in 0..b.ncols() {
        assert_eq!(b.col(j), before.col(j), "a refused solve must leave the rhs untouched");
    }
    for lane in router.stats() {
        assert_eq!(lane.requests, 0, "no work may reach the shards");
    }
    router.shutdown();

    // A right-hand side with the wrong row count is refused the same way,
    // and the router still answers the next well-formed solve.
    let router: ShardRouter<Gaussian> = ShardRouter::start(2);
    let mut short = rhs_matrix(sf.n() - 1, 2, 0);
    let before = short.clone();
    match router.solve(&sf, &mut short) {
        Err(ShardError::RhsShape { expected: 512, got: 511 }) => {}
        other => panic!("expected RhsShape, got {other:?}"),
    }
    assert_eq!(short.as_slice(), before.as_slice(), "a refused solve must leave the rhs untouched");
    for lane in router.stats() {
        assert_eq!(lane.requests, 0, "no work may reach the shards");
    }
    let mut routed = rhs_matrix(sf.n(), 2, 0);
    let mut single = routed.clone();
    router.solve(&sf, &mut routed).expect("the next well-formed solve is answered");
    sf.factor_tree().solve_mat_in_place(&mut single).expect("single-node solve");
    assert_eq!(routed.as_slice(), single.as_slice());
    router.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The acceptance property, through the router: bitwise equality
    // across shard count, λ and RHS width.
    #[test]
    fn routed_solve_bitwise_property(
        lambda_ix in 0usize..3,
        nrhs in 1usize..5,
        p_log in 0usize..3,
    ) {
        let lambda = [0.25, 1.0, 4.0][lambda_ix];
        let sf = shared_factor(lambda);
        let p = 1 << p_log;
        let router: ShardRouter<Gaussian> = ShardRouter::start(p);
        let mut routed = rhs_matrix(sf.n(), nrhs, p_log);
        let mut single = routed.clone();
        router.solve(&sf, &mut routed).expect("routed solve");
        sf.factor_tree().solve_mat_in_place(&mut single).expect("single-node solve");
        for j in 0..nrhs {
            prop_assert_eq!(routed.col(j), single.col(j));
        }
        router.shutdown();
    }
}
