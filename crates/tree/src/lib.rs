//! # kfds-tree — geometric substrate for `kernel-fds`
//!
//! Point sets, the ball-tree partitioner that induces the hierarchical
//! ordering of the kernel matrix, exact k-nearest-neighbor search (used by
//! ASKIT's skeletonization row sampling), and seeded synthetic dataset
//! generators standing in for the paper's real-world data (see `DESIGN.md`
//! for the substitution rationale).

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

pub mod balltree;
pub mod datasets;
pub mod dist_tiles;
pub mod neighbors;
pub mod points;

pub use balltree::{BallTree, Node};
pub use dist_tiles::blocked_tile_count;
pub use neighbors::{
    knn_all, knn_approximate, knn_approximate_brute_force, knn_brute_force, knn_recall,
    NeighborLists,
};
pub use points::{sq_dist, PointSet};
