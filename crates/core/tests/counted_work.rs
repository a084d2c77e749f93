//! The paper's headline as exact counts: `factorize` does `O(N log N)`
//! work and `factorize_baseline` (INV-ASKIT) `O(N log² N)`, over the same
//! skeletons, and both hold `O(N·s·L)` bytes.
//!
//! Timed slopes drift with the host; `FactorStats::flops` and
//! `stored_bytes` are counted off the factor layout and do not. The shape
//! is the `normal64d_direct` benchmark workload's (NORMAL 6-in-64, Gaussian
//! h = 4, leaf 128, fixed rank s = 64, κ = 16, 8 projection trees) over
//! N = 2¹⁰…2¹³, with L = `tree.depth()` levels. Measured per point, per
//! level (`flops / (N·L)`): `factorize` 41.8k, 38.1k, 35.7k, 34.0k (it
//! falls); the baseline 71.2k, 78.8k, 86.8k, 94.9k (+7.6–8.1k a level, the
//! `N log² N` signature). `stored_bytes / N` reads 3232, 3792, 4328, 4852,
//! about `8·s` bytes a level over the leaf LUs, for both.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{factorize, factorize_baseline, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;

const RANK: usize = 64;

/// One sweep point: `(N, L, flops/(N·L) of factorize, of the baseline,
/// stored bytes)`.
fn counts(n: usize) -> (usize, usize, f64, f64, usize) {
    let kernel = Gaussian::new(4.0);
    let tree = BallTree::build(&normal_embedded(n, 6, 64, 0.1, 7), 128);
    let levels = tree.depth();
    let skel = SkelConfig::default()
        .with_tol(0.0)
        .with_max_rank(RANK)
        .with_neighbors(16)
        .with_approx_knn(8)
        .with_max_level(1)
        .with_seed(3);
    let st = skeletonize(tree, &kernel, skel);
    let cfg = SolverConfig::default().with_lambda(1.0);
    let fast = factorize(&st, &kernel, cfg).expect("factorize");
    let slow = factorize_baseline(&st, &kernel, cfg).expect("baseline");
    assert_eq!(
        fast.stats().stored_bytes,
        slow.stats().stored_bytes,
        "the same factors report the same bytes whichever builder made them"
    );
    let per = |flops: f64| flops / (n * levels) as f64;
    (n, levels, per(fast.stats().flops), per(slow.stats().flops), fast.stats().stored_bytes)
}

#[test]
fn factorize_counts_n_log_n_and_the_baseline_n_log2_n() {
    let sweep: Vec<_> = (10..=13).map(|e| counts(1 << e)).collect();
    for &(n, l, fast, slow, bytes) in &sweep {
        eprintln!(
            "N {n:5}  L {l}  flops/(N·L) {fast:7.0} / baseline {slow:7.0}  bytes/N {}",
            bytes / n
        );
    }
    for w in sweep.windows(2) {
        let ((n0, l0, fast0, slow0, _), (n1, l1, fast1, slow1, _)) = (w[0], w[1]);
        assert_eq!(l1, l0 + 1, "N = {n0} → {n1} adds one level");
        // N log N: the work per point per level does not grow (it falls
        // 5–9 % a step as the leaf LUs' fixed share thins out).
        assert!(fast1 <= 1.02 * fast0, "factorize flops/(N·L) grew: {fast0:.0} → {fast1:.0}");
        // N log² N: the baseline's work per point per level grows by a
        // level's worth each step (measured 7.6–8.1k; bound at ~60 %).
        assert!(
            slow1 - slow0 >= 5.0e3,
            "baseline flops/(N·L) {slow0:.0} → {slow1:.0} does not grow linearly in L"
        );
    }
    // O(N·s·L) bytes: at most 2.5 × 8·s bytes per point per level
    // (measured 2.1× at N = 2¹⁰, falling to 1.6× at 2¹³).
    for &(n, l, _, _, bytes) in &sweep {
        let bound = 2.5 * (8 * RANK * n * l) as f64;
        assert!(bytes as f64 <= bound, "N = {n}: {bytes} bytes > 2.5·8·s·N·L = {bound:.0}");
    }
}
