//! Property-based tests for the geometric substrate.

use kfds_tree::datasets::normal_embedded;
use kfds_tree::{
    knn_all, knn_approximate, knn_brute_force, knn_recall, set_knn_blocked, BallTree, PointSet,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the global `KFDS_KNN` runtime override so a
/// concurrent test never observes a half-flipped A/B comparison.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn points_strategy(min_n: usize, max_n: usize, max_d: usize) -> impl Strategy<Value = PointSet> {
    (min_n..=max_n, 1..=max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-5.0f64..5.0, n * d)
            .prop_map(move |data| PointSet::from_col_major(d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_structural_invariants(pts in points_strategy(2, 120, 6), m in 1usize..20) {
        let t = BallTree::build(&pts, m);
        let n = pts.len();
        // Permutation is a bijection and points match.
        let mut seen = vec![false; n];
        for (k, &o) in t.perm().iter().enumerate() {
            prop_assert!(!seen[o]);
            seen[o] = true;
            prop_assert_eq!(t.points().point(k), pts.point(o));
        }
        // Children partition their parent contiguously; leaves respect m.
        for (i, nd) in t.nodes().iter().enumerate() {
            prop_assert!(!nd.is_empty());
            match nd.children {
                Some((l, r)) => {
                    prop_assert_eq!(t.node(l).begin, nd.begin);
                    prop_assert_eq!(t.node(l).end, t.node(r).begin);
                    prop_assert_eq!(t.node(r).end, nd.end);
                    prop_assert_eq!(t.node(l).parent, Some(i));
                    prop_assert_eq!(t.node(r).sibling, Some(l));
                }
                None => prop_assert!(nd.len() <= m),
            }
        }
    }

    #[test]
    fn balls_cover_points(pts in points_strategy(4, 80, 4), m in 2usize..12) {
        let t = BallTree::build(&pts, m);
        for nd in t.nodes() {
            for k in nd.range() {
                let d = kfds_tree::sq_dist(t.points().point(k), &nd.center).sqrt();
                prop_assert!(d <= nd.radius + 1e-9);
            }
        }
    }

    #[test]
    fn knn_exactness(pts in points_strategy(10, 60, 4), k in 1usize..6) {
        prop_assume!(k < pts.len());
        let t = BallTree::build(&pts, 6);
        let fast = knn_all(&t, k);
        let slow = knn_brute_force(&t, k);
        for i in 0..pts.len() {
            prop_assert_eq!(fast.neighbors(i), slow.neighbors(i), "indices of point {i}");
            for j in 0..k {
                let (df, ds) = (fast.distances(i)[j], slow.distances(i)[j]);
                prop_assert_eq!(df.to_bits(), ds.to_bits(), "point {i} rank {j}");
            }
        }
    }

    #[test]
    fn scalar_switch_reproduces_blocked_output_bitwise(
        pts in points_strategy(10, 80, 5),
        k in 1usize..6,
    ) {
        prop_assume!(k < pts.len());
        let _guard = SWITCH_LOCK.lock().unwrap();
        let t = BallTree::build(&pts, 6);
        set_knn_blocked(true);
        let blocked_exact = knn_all(&t, k);
        let blocked_approx = knn_approximate(&t, k, 3, 9);
        set_knn_blocked(false);
        let scalar_exact = knn_all(&t, k);
        let scalar_approx = knn_approximate(&t, k, 3, 9);
        set_knn_blocked(true);
        // Both paths keep exact `sq_dist` values under the same (dist, idx)
        // order, so agreement must be bitwise, not merely within tolerance.
        for i in 0..pts.len() {
            prop_assert_eq!(blocked_exact.neighbors(i), scalar_exact.neighbors(i), "exact idx {i}");
            prop_assert_eq!(blocked_approx.neighbors(i), scalar_approx.neighbors(i), "approx idx {i}");
            for j in 0..k {
                prop_assert_eq!(
                    blocked_exact.distances(i)[j].to_bits(),
                    scalar_exact.distances(i)[j].to_bits(),
                    "exact dist {i} rank {j}"
                );
                prop_assert_eq!(
                    blocked_approx.distances(i)[j].to_bits(),
                    scalar_approx.distances(i)[j].to_bits(),
                    "approx dist {i} rank {j}"
                );
            }
        }
    }

    #[test]
    fn projection_tree_recall_bound(seed in 0u64..1000) {
        // Low intrinsic dimension embedded in a higher ambient one: the
        // regime `harness_skel_config` routes to the approximate path. A
        // handful of randomized projection trees must recover most true
        // neighbors regardless of the RNG stream.
        let p = normal_embedded(300, 3, 16, 0.05, seed.wrapping_mul(0x9e3779b9).wrapping_add(1));
        let t = BallTree::build(&p, 16);
        let exact = knn_all(&t, 8);
        let approx = knn_approximate(&t, 8, 6, seed);
        let recall = knn_recall(&exact, &approx);
        prop_assert!(recall > 0.55, "seed {seed}: recall {recall}");
    }

    #[test]
    fn normalization_idempotent_statistics(pts in points_strategy(8, 60, 4)) {
        let mut p = pts;
        p.normalize();
        let n = p.len() as f64;
        for c in 0..p.dim() {
            let mean: f64 = (0..p.len()).map(|i| p.point(i)[c]).sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-9);
            let var: f64 = (0..p.len()).map(|i| p.point(i)[c].powi(2)).sum::<f64>() / n;
            // Either unit variance or a degenerate (constant) coordinate.
            prop_assert!((var - 1.0).abs() < 1e-7 || var < 1e-12);
        }
    }
}
