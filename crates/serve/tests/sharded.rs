//! Sharded-service acceptance: a `shards(p)` service must answer
//! **bitwise-identically** to a `shards(1)` service (sharding only
//! reorders the same arithmetic), per-shard lanes must account for every
//! routed batch, and a factor the partition refuses must be answered
//! single-node and counted as a fallback.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{SharedSetup, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_serve::{FactorKey, ServeConfig, ServeError, ServeStats, SetupKey, SolveService};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::Arc;
use std::time::Duration;

/// Leaves of 64 points, skeletonized from level `max_level` down (`1`:
/// every reduced system is factored; `2`: a hybrid factor).
fn build_setup(key: &SetupKey, max_level: usize) -> Result<SharedSetup<Gaussian>, ServeError> {
    let pts = normal_embedded(key.n, 3, 8, 0.05, key.seed);
    let kernel = Gaussian::new(key.h());
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(48)
            .with_neighbors(8)
            .with_max_level(max_level),
    );
    Ok(SharedSetup::build(Arc::new(st), Arc::new(kernel)))
}

fn start(shards: usize, max_level: usize) -> SolveService<Gaussian> {
    // One worker and zero linger so sequential submit→wait cycles
    // dispatch deterministically as batches of 1.
    let cfg =
        ServeConfig::default().with_workers(1).with_shards(shards).with_linger(Duration::ZERO);
    let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
    SolveService::start_two_level(cfg, base, move |key: &SetupKey| build_setup(key, max_level))
}

/// Answers `nreq` sequential requests on `svc`, then shuts it down.
fn answers(
    svc: SolveService<Gaussian>,
    key: &FactorKey,
    nreq: usize,
) -> (Vec<Vec<f64>>, ServeStats) {
    let got = (0..nreq)
        .map(|r| svc.submit(key.clone(), rhs(key.n, r)).expect("submit").wait().expect("solve"))
        .collect();
    (got, svc.shutdown())
}

fn rhs(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + ((i * 13 + seed * 7) % 17) as f64 / 17.0).collect()
}

#[test]
fn sharded_service_answers_bitwise_like_a_single_node_one() {
    let n = 512;
    let nreq = 6;
    let key = FactorKey::new("t-shard", n, 1.0, 0.5, 3);

    // Reference: the single-node service, which starts no router.
    let svc = start(1, 1);
    let reference: Vec<Vec<f64>> = (0..nreq)
        .map(|r| svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("solve"))
        .collect();
    let stats = svc.shutdown();
    assert!(stats.shards.is_empty(), "shards(1) must leave the service unsharded");
    assert_eq!(stats.shard_fallbacks, 0);
    assert_eq!(stats.completed, nreq as u64);

    // Sharded services at p = 2 and p = 4 must reproduce every byte.
    for p in [2usize, 4] {
        let svc = start(p, 1);
        for (r, want) in reference.iter().enumerate() {
            let got =
                svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("routed solve");
            assert_eq!(&got, want, "p={p} request {r}: sharded answer must be bitwise identical");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, nreq as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.shard_fallbacks, 0, "complete factors must never fall back");
        assert_eq!(stats.shards.len(), p, "one counter lane per shard");
        for lane in &stats.shards {
            assert_eq!(lane.rows_solved, stats.batches * (n / p) as u64);
        }
    }
}

#[test]
fn ragged_n_sharded_answers_like_a_single_node_one() {
    // n = 1001 splits into shards of unequal rows at p = 2 and p = 4. A
    // sharded service must still answer every byte as shards(1) does, or
    // refuse with a typed error; it must never panic.
    let n = 1001;
    let nreq = 3;
    let key = FactorKey::new("t-shard-ragged", n, 1.0, 0.5, 5);
    let svc = start(1, 1);
    let reference: Vec<Vec<f64>> = (0..nreq)
        .map(|r| svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("solve"))
        .collect();
    svc.shutdown();
    for p in [2usize, 4] {
        let svc = start(p, 1);
        for (r, want) in reference.iter().enumerate() {
            let got =
                svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("routed solve");
            assert_eq!(&got, want, "p={p} request {r}: sharded answer must be bitwise identical");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, nreq as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.shard_fallbacks, 0, "complete factors must never fall back");
        assert_eq!(stats.shards.len(), p, "one counter lane per shard");
        let rows: u64 = stats.shards.iter().map(|lane| lane.rows_solved).sum();
        assert_eq!(rows, stats.batches * n as u64, "the shards' rows cover n once per batch");
    }
}

#[test]
fn unpartitionable_factors_are_answered_single_node() {
    // Sixteen shards of an eight-leaf tree (n = 512, leaves of 64), and
    // two shards of a level-restricted (L = 2, hybrid) factor: the
    // partition refuses both, so every batch is solved single-node — the
    // same bits as shards(1) — and counted as a fallback.
    let n = 512;
    let nreq = 3;
    for (p, max_level) in [(16usize, 1usize), (2, 2)] {
        let key = FactorKey::new("t-shard-fallback", n, 1.0, 0.5, 7);
        let (reference, stats) = answers(start(1, max_level), &key, nreq);
        assert_eq!((stats.errors, stats.shard_fallbacks), (0, 0));
        let (got, stats) = answers(start(p, max_level), &key, nreq);
        assert_eq!(
            got, reference,
            "p={p} L={max_level}: fallback answers must be bitwise identical"
        );
        assert_eq!(stats.completed, nreq as u64);
        assert_eq!(stats.errors, 0);
        assert!(stats.batches > 0);
        assert_eq!(stats.shard_fallbacks, stats.batches, "p={p} L={max_level}: every batch");
        assert_eq!(stats.shards.len(), p, "one counter lane per shard");
        assert!(stats.shards.iter().all(|lane| lane.rows_solved == 0), "{:?}", stats.shards);
    }
}
