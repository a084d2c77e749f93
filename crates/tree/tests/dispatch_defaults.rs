//! The filter-and-refine neighbor search is what runs when `KFDS_KNN` is
//! unset. Alone in its binary: the block-pair counter is process-global,
//! so no other test may search (or flip the switch) while this one reads
//! it.

use kfds_tree::datasets::normal_embedded;
use kfds_tree::{blocked_tile_count, knn_all, knn_approximate, knn_blocked_active, BallTree};

#[test]
fn both_search_modes_resolve_block_pairs_by_default() {
    if kfds_switches::KFDS_KNN.is_off() {
        return;
    }
    assert!(knn_blocked_active());
    let tree = BallTree::build(&normal_embedded(256, 4, 8, 0.1, 3), 32);
    let start = blocked_tile_count();
    let _ = knn_all(&tree, 8);
    let exact = blocked_tile_count() - start;
    let _ = knn_approximate(&tree, 8, 2, 7);
    let approx = blocked_tile_count() - start - exact;
    // One count per leaf × leaf pair met (a seed tile and a filter call
    // alike): every leaf's own, at most all 8 × 8; and one per bucket of
    // each projection tree (256 points in buckets of 32, two trees).
    assert!((8..=64).contains(&exact), "exact search resolved {exact} block pairs");
    assert_eq!(approx, 16, "approximate search resolved {approx} block pairs");
}
