//! One answer, however it is computed: the neighbor lists do not depend on
//! the SIMD level or the thread count. Alone in its binary — it flips the
//! process-global SIMD and kNN switches, and the tests below take turns.

use kfds_la::simd::set_simd_enabled;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::{
    knn_all, knn_approximate, knn_brute_force, set_knn_blocked, BallTree, NeighborLists,
};
use std::sync::Mutex;

static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn assert_same(a: &NeighborLists, b: &NeighborLists, n: usize, what: &str) {
    for i in 0..n {
        assert_eq!(a.neighbors(i), b.neighbors(i), "{what}: indices of point {i}");
        let bits =
            |l: &NeighborLists| l.distances(i).iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: distances of point {i}");
    }
}

/// Ragged on purpose: 1237 points leave leaves that are not multiples of
/// the kernel's 8-row groups.
fn tree() -> BallTree {
    BallTree::build(&normal_embedded(1237, 4, 12, 0.05, 11), 64)
}

#[test]
fn lists_do_not_depend_on_the_simd_level() {
    let _g = SWITCH_LOCK.lock().unwrap();
    let t = tree();
    let n = t.points().len();
    let brute = knn_brute_force(&t, 9);
    for simd in [true, false] {
        set_simd_enabled(simd);
        assert_same(&knn_all(&t, 9), &brute, n, &format!("exact, simd={simd}"));
        // The projection keys are SIMD dots, so the buckets (not the
        // contract) may move with the level: compare within one level.
        let blocked = knn_approximate(&t, 9, 4, 3);
        set_knn_blocked(false);
        let scalar = knn_approximate(&t, 9, 4, 3);
        set_knn_blocked(true);
        assert_same(&blocked, &scalar, n, &format!("approximate, simd={simd}"));
    }
    set_simd_enabled(true);
}

#[test]
fn lists_do_not_depend_on_the_thread_count() {
    let _g = SWITCH_LOCK.lock().unwrap();
    let t = tree();
    let n = t.points().len();
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| (knn_all(&t, 9), knn_approximate(&t, 9, 4, 3)))
    };
    let (exact1, approx1) = run(1);
    let (exact4, approx4) = run(4);
    assert_same(&exact1, &exact4, n, "exact, 1 vs 4 threads");
    assert_same(&approx1, &approx4, n, "approximate, 1 vs 4 threads");
}
