//! The GEMM-tile neighbor search is what runs when `KFDS_KNN` is unset.
//! Alone in its binary: the tile counter is process-global, so no other
//! test may search (or flip the switch) while this one reads it.

use kfds_tree::datasets::normal_embedded;
use kfds_tree::{blocked_tile_count, knn_all, knn_approximate, knn_blocked_active, BallTree};

#[test]
fn both_search_modes_compute_gemm_tiles_by_default() {
    if kfds_switches::KFDS_KNN.is_off() {
        return;
    }
    assert!(knn_blocked_active());
    let tree = BallTree::build(&normal_embedded(256, 4, 8, 0.1, 3), 32);
    let start = blocked_tile_count();
    let _ = knn_all(&tree, 8);
    let after_exact = blocked_tile_count();
    let _ = knn_approximate(&tree, 8, 2, 7);
    assert!(after_exact > start, "exact search computed no GEMM tile");
    assert!(blocked_tile_count() > after_exact, "approximate search computed no GEMM tile");
}
