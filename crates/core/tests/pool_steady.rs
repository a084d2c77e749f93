//! Steady-state allocation behavior of factorize + solve.
//!
//! The workspace pool exists so the second and later factorize/solve of a
//! same-shaped workload recycle warm buffers instead of allocating. This
//! test asserts that property end to end through the real solver stack:
//! after a warm-up pass, a full factorize + solve must be overwhelmingly
//! pool hits.

use kfds_askit::{compute_neighbors, skeletonize, skeletonize_with_neighbors, SkelConfig};
use kfds_core::{factorize, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_la::{workspace, Mat};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::Mutex;

/// The pool counters are process-wide: the tests here take turns so each
/// reads only its own traffic (the solve test pins an absolute count).
static COUNTERS: Mutex<()> = Mutex::new(());

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn steady_state_factor_solve_is_mostly_pool_hits() {
    let _turn = COUNTERS.lock().unwrap();
    let n = 1024;
    let pts = normal_embedded(n, 3, 8, 0.05, 11);
    let tree = BallTree::build(&pts, 64);
    let kernel = Gaussian::new(1.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8).with_max_level(1),
    );
    let cfg = SolverConfig::default().with_lambda(0.5);

    // Warm-up: first pass fills the per-thread free lists.
    let ft = factorize(&st, &kernel, cfg).expect("warm-up factorize");
    let mut x = rand_vec(n, 3);
    ft.solve_in_place(&mut x).expect("warm-up solve");
    drop(ft);

    let (h0, m0) = workspace::stats();
    let ft = factorize(&st, &kernel, cfg).expect("steady-state factorize");
    let mut x = rand_vec(n, 5);
    ft.solve_in_place(&mut x).expect("steady-state solve");
    let (h1, m1) = workspace::stats();

    let (hits, misses) = (h1 - h0, m1 - m0);
    assert!(hits > 0, "pool saw no traffic — hot paths are not pooled");
    let hit_rate = hits as f64 / (hits + misses) as f64;
    // Not every buffer recycles perfectly (factors that outlive the pass,
    // buffers dropped on a different worker thread), but the steady state
    // must be dominated by reuse.
    assert!(
        hit_rate >= 0.80,
        "steady-state pool hit rate {hit_rate:.3} ({hits} hits / {misses} misses) below 0.80"
    );
}

#[test]
fn steady_state_solve_path_is_mostly_pool_hits() {
    let _turn = COUNTERS.lock().unwrap();
    let n = 1024;
    let pts = normal_embedded(n, 3, 8, 0.05, 13);
    let tree = BallTree::build(&pts, 64);
    let kernel = Gaussian::new(1.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8).with_max_level(1),
    );
    let cfg = SolverConfig::default().with_lambda(0.5);
    let ft = factorize(&st, &kernel, cfg).expect("factorize");

    // A serving workload is repeated solves against fixed factors: after
    // four warm-up solves have filled the free lists with solve-shaped
    // buffers, eight more must be allocation-free in the pooled classes.
    // Returns the pool takes per solve.
    let steady = |what: &str, solve: &dyn Fn(u64)| -> u64 {
        (0..4).for_each(|seed| solve(17 + seed));
        let (h0, m0) = workspace::stats();
        (0..8).for_each(|seed| solve(29 + seed));
        let (h1, m1) = workspace::stats();
        let (hits, misses) = (h1 - h0, m1 - m0);
        assert!(hits > 0, "{what} solve path saw no pool traffic — hot paths are not pooled");
        let hit_rate = hits as f64 / (hits + misses) as f64;
        assert!(
            hit_rate >= 0.90,
            "steady-state {what} solve pool hit rate {hit_rate:.3} ({hits} hits / {misses} misses) \
             below 0.90"
        );
        (hits + misses) / 8
    };
    steady("single-RHS", &|seed| {
        let mut x = rand_vec(n, seed);
        ft.solve_in_place(&mut x).expect("single-RHS solve");
    });
    // The blocked path, the one the serve tier runs: 16 columns. The
    // recursion itself takes three buffers per internal node (the reduced
    // right-hand side and, matrix-free, the two column lists); the rest is
    // packing scratch inside the GEMM / GSKS calls. 531 is the largest
    // count of any lane (AVX-512 skinny GEMM, two or more threads; 529 on
    // one thread, 501 with SIMD off, where no skinny path runs), so a row
    // half copied out and back again would show here. (A buffer built on
    // the heap instead would not: `kfds-lint`'s hot-path-alloc rule holds
    // `solve.rs` to the pool.)
    let takes = steady("16-RHS", &|seed| {
        let mut b = Mat::from_col_major(n, 16, rand_vec(n * 16, seed));
        ft.solve_mat_in_place(&mut b).expect("blocked solve");
    });
    assert!(takes <= 531, "a 16-RHS solve made {takes} pool takes, more than the pinned 531");
}

#[test]
fn steady_state_setup_rebuild_is_mostly_pool_hits() {
    // A rebuild-heavy workload (cross-validation sweeps, serving cache
    // misses) re-runs the whole setup phase — tree, skeletonization —
    // against the same point set. After a warm-up rebuild, the
    // skeletonization temporaries (column-union lists, sampled blocks,
    // gathered coordinate panels, ID scratch) must recycle from the pool.
    let _turn = COUNTERS.lock().unwrap();
    let n = 1024;
    let pts = normal_embedded(n, 3, 8, 0.05, 17);
    let kernel = Gaussian::new(1.0);
    let cfg =
        SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8).with_max_level(1);
    let tree = BallTree::build(&pts, 64);
    let nn = compute_neighbors(&tree, &cfg);
    drop(tree);

    // Warm-up rebuilds fill the free lists with setup-shaped buffers.
    for _ in 0..2 {
        let tree = BallTree::build(&pts, 64);
        let st = skeletonize_with_neighbors(tree, &kernel, cfg.clone(), &nn);
        assert!(st.is_fully_skeletonized());
    }

    let (h0, m0) = workspace::stats();
    for _ in 0..4 {
        let tree = BallTree::build(&pts, 64);
        let st = skeletonize_with_neighbors(tree, &kernel, cfg.clone(), &nn);
        assert!(st.is_fully_skeletonized());
    }
    let (h1, m1) = workspace::stats();

    let (hits, misses) = (h1 - h0, m1 - m0);
    assert!(hits > 0, "setup rebuild saw no pool traffic — skeletonization is not pooled");
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        hit_rate >= 0.80,
        "steady-state setup pool hit rate {hit_rate:.3} ({hits} hits / {misses} misses) below 0.80"
    );
}
