//! The partitioned (sharded) solve must be bitwise-identical to the
//! single-node blocked solve.
//!
//! [`PartitionedFactor`] only reorganizes memory movement — each shard's
//! local solve is the exact subtree recursion, and the top sweep replays
//! the identical per-node SMW correction arithmetic — so for every shard
//! count, storage mode, λ and RHS width, the answers must agree bit for
//! bit, not just to tolerance.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{PartitionedFactor, SharedFactor, SolverConfig, SolverError, StorageMode};
use kfds_kernels::Gaussian;
use kfds_la::Mat;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use proptest::prelude::*;
use std::sync::Arc;

fn shared_factor(
    n: usize,
    leaf: usize,
    max_level: usize,
    lambda: f64,
    storage: StorageMode,
) -> SharedFactor<Gaussian> {
    let pts = normal_embedded(n, 3, 6, 0.05, 29);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&pts, leaf);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(48)
            .with_neighbors(8)
            .with_max_level(max_level),
    );
    SharedFactor::factorize(
        Arc::new(st),
        Arc::new(kernel),
        SolverConfig::default().with_lambda(lambda).with_storage(storage),
    )
    .expect("fixture factorization")
}

fn rhs_matrix(n: usize, nrhs: usize, salt: usize) -> Mat {
    let mut b = Mat::zeros(n, nrhs);
    for j in 0..nrhs {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 3) + 11 * salt + 7) % 37) as f64 / 37.0 - 0.5;
        }
    }
    b
}

fn assert_bitwise(pf: &PartitionedFactor<Gaussian>, sf: &SharedFactor<Gaussian>, nrhs: usize) {
    let n = sf.n();
    let mut sharded = rhs_matrix(n, nrhs, pf.shards());
    let mut single = sharded.clone();
    pf.solve_mat_in_place(&mut sharded).expect("partitioned solve");
    sf.factor_tree().solve_mat_in_place(&mut single).expect("single-node solve");
    for j in 0..nrhs {
        assert_eq!(
            sharded.col(j),
            single.col(j),
            "sharded (p={}) and single-node answers diverge in column {j}",
            pf.shards()
        );
    }
}

#[test]
fn sharded_solve_is_bitwise_identical_for_p_1_2_4() {
    // n = 1001 over leaves of 64: the shards hold unequal row counts.
    for (n, storage) in
        [(512, StorageMode::Gsks), (512, StorageMode::StoredGemv), (1001, StorageMode::Gsks)]
    {
        let sf = shared_factor(n, 64, 1, 0.5, storage);
        for p in [1usize, 2, 4] {
            let pf = PartitionedFactor::partition(sf.clone(), p).expect("partition");
            assert_eq!(pf.shards(), p);
            assert_eq!(pf.cut_level(), p.trailing_zeros() as usize);
            // Shard ranges tile 0..n contiguously.
            let mut cursor = 0;
            for s in 0..p {
                let range = pf.shard_range(s);
                assert_eq!(range.start, cursor);
                cursor = range.end;
            }
            assert_eq!(cursor, sf.n());
            assert_bitwise(&pf, &sf, 4);
        }
    }
}

#[test]
fn partition_rejects_bad_shapes() {
    let sf = shared_factor(512, 64, 1, 0.5, StorageMode::Gsks);
    for bad in [0usize, 3, 1 << 12] {
        assert!(
            matches!(
                PartitionedFactor::partition(sf.clone(), bad),
                Err(SolverError::Partition { .. })
            ),
            "p={bad} must be rejected"
        );
    }
    // Level restriction leaves the top tree unfactored: unpartitionable.
    let shallow = shared_factor(512, 64, 2, 0.5, StorageMode::Gsks);
    assert!(!shallow.is_complete());
    assert!(matches!(PartitionedFactor::partition(shallow, 2), Err(SolverError::Partition { .. })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Bitwise equality holds across λ, RHS width and shard count — the
    // acceptance property for the sharded serve tier.
    #[test]
    fn sharded_solve_bitwise_property(
        lambda_ix in 0usize..4,
        nrhs in 1usize..6,
        p_log in 0usize..3,
    ) {
        let lambda = [0.25, 0.5, 1.0, 4.0][lambda_ix];
        let sf = shared_factor(512, 64, 1, lambda, StorageMode::StoredGemv);
        let pf = PartitionedFactor::partition(sf.clone(), 1 << p_log).expect("partition");
        assert_bitwise(&pf, &sf, nrhs);
    }
}
