//! Partitioning a complete factorization into rank-owned subtree shards.
//!
//! The paper's distributed algorithms (II.4/II.5) assign each rank a
//! subtree of the hierarchical factorization and keep only the top
//! `log p` levels shared. [`rank_owned_cut`] finds that cut — the one
//! check both [`crate::dist_factorize`] and [`PartitionedFactor`] run — and
//! [`PartitionedFactor`] applies it to an already-built [`SharedFactor`]:
//! cutting the tree at level `log2(p)` yields `p` disjoint subtree roots
//! whose solves are fully independent (each is exactly the recursive
//! Algorithm II.3 on its subtree), plus a shared *top tree* of
//! Sherman–Morrison–Woodbury corrections that stitches the per-shard
//! partial solves together.
//!
//! The split is bitwise-exact by construction: a shard solve runs the
//! same `solve_node` recursion on the same rows the single-node solve
//! would have recursed into, and the top sweep replays the identical
//! per-node `smw_correct` arithmetic bottom-up — both on row-block views
//! of the caller's matrix, exactly as the single-node recursion does, so
//! the top sweep touches only the rows it corrects. Only the order of
//! the node visits differs, so `PartitionedFactor::solve_mat_in_place`
//! equals [`FactorTree::solve_mat_in_place`](crate::FactorTree::solve_mat_in_place)
//! bit for bit — the property the sharded serve tier's tests (a
//! `shards(p)` service against a `shards(1)` one) and ci smoke lane
//! assert. `kfds-serve` runs it on the service worker that took the
//! batch: each shard's solve takes the whole rayon pool in turn, so a
//! sharded service starts no thread of its own.

use crate::error::SolverError;
use crate::share::SharedFactor;
use crate::solve::check_rhs_rows;
use kfds_askit::SkeletonTree;
use kfds_kernels::Kernel;
use kfds_la::{Mat, MatMut};
use std::ops::Range;

/// The rank-owned cut of a tree at level `log2(p)`: the `p` subtree roots
/// in row order and the contiguous permuted rows each one owns.
pub(crate) struct Cut {
    /// The cut level `log2(p)`.
    pub(crate) level: usize,
    /// Subtree root node of each rank, in row order.
    pub(crate) roots: Vec<usize>,
    /// Permuted row range owned by each rank.
    pub(crate) ranges: Vec<Range<usize>>,
}

/// Cuts `st`'s tree into `p` rank-owned subtrees: `p` is a power of two,
/// exactly `p` nodes sit at level `log2(p)`, their subtrees cover the rows
/// contiguously in level order, and every node above the cut has
/// skeletonized children (the levels above are telescoped or corrected
/// through those skeletons).
///
/// # Errors
/// [`SolverError::NotSkeletonized`] naming the first node of levels
/// `1..=log2(p)` without a skeleton (a level restriction above the cut);
/// [`SolverError::Partition`] for every other misfit.
pub(crate) fn rank_owned_cut(st: &SkeletonTree, p: usize) -> Result<Cut, SolverError> {
    if !p.is_power_of_two() {
        return Err(err(format!("rank count {p} is not a power of two")));
    }
    let tree = st.tree();
    let level = p.trailing_zeros() as usize;
    let roots = tree.nodes_at_level(level).to_vec();
    if roots.len() != p {
        return Err(err(format!(
            "tree has {} node(s) at level {level}, need exactly {p} rank-owned subtrees",
            roots.len()
        )));
    }
    let ranges: Vec<Range<usize>> = roots.iter().map(|&nd| tree.node(nd).range()).collect();
    let mut covered = 0;
    for (s, range) in ranges.iter().enumerate() {
        if range.start != covered || range.is_empty() {
            return Err(err(format!("cut is not a contiguous cover: rank {s} owns {range:?}")));
        }
        covered = range.end;
    }
    if covered != tree.points().len() {
        return Err(err(format!("cut covers {covered} of {} rows", tree.points().len())));
    }
    // Levels 1..=level are exactly the children of the nodes above the cut.
    for l in 1..=level {
        if let Some(&node) = tree.nodes_at_level(l).iter().find(|&&v| !st.is_skeletonized(v)) {
            return Err(SolverError::NotSkeletonized { node });
        }
    }
    Ok(Cut { level, roots, ranges })
}

fn err(reason: impl Into<String>) -> SolverError {
    SolverError::Partition { reason: reason.into() }
}

/// A complete factorization split at a cut level into `p` rank-owned
/// subtree shards plus the shared top tree: a view over the caller's
/// [`SharedFactor`] handle, `O(p)` to build.
pub struct PartitionedFactor<K: Kernel + 'static> {
    factor: SharedFactor<K>,
    cut: Cut,
}

impl<K: Kernel + 'static> PartitionedFactor<K> {
    /// Splits `factor` into `p` rank-owned subtree shards at cut level
    /// `log2(p)`.
    ///
    /// # Errors
    /// Returns [`SolverError::Partition`] when the split is impossible:
    /// the factorization incomplete (level restriction — the top-tree
    /// corrections would be missing), `p` not a power of two, the tree
    /// too shallow to expose `p` subtrees, or a malformed cut.
    pub fn partition(factor: SharedFactor<K>, p: usize) -> Result<Self, SolverError> {
        if !factor.is_complete() {
            return Err(err("incomplete factorization (level restriction); the shared top tree \
                 requires every reduced system above the cut"));
        }
        // A complete factor holds the reduced system of every node whose
        // children are skeletonized, so the cut's check covers the top tree.
        let cut = rank_owned_cut(factor.skeleton_tree(), p).map_err(|e| match e {
            SolverError::Partition { .. } => e,
            other => err(other.to_string()),
        })?;
        Ok(Self { factor, cut })
    }

    /// Number of shards `p`.
    pub fn shards(&self) -> usize {
        self.cut.roots.len()
    }

    /// The cut level `log2(p)`.
    pub fn cut_level(&self) -> usize {
        self.cut.level
    }

    /// Problem size (rows of the factorized system).
    pub fn n(&self) -> usize {
        self.factor.n()
    }

    /// Permuted row range owned by `shard`.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.cut.ranges[shard].clone()
    }

    /// Runs the independent subtree solve of `shard` on its row block
    /// (a `|shard rows| x nrhs` view, permuted ordering) in place: the
    /// exact recursion the single-node solve runs below the cut.
    fn solve_local(&self, shard: usize, block: MatMut<'_>) {
        assert_eq!(block.nrows(), self.cut.ranges[shard].len(), "shard block rows mismatch");
        self.factor.factor_tree().ctx().solve_node(self.cut.roots[shard], block);
    }

    /// Applies the shared top tree to `b` (`n x nrhs`, permuted ordering,
    /// all shard blocks already locally solved): Sherman–Morrison–Woodbury
    /// corrections bottom-up from just above the cut to the root, each
    /// node running the identical arithmetic of the recursive solve on the
    /// two row-block views of its children.
    fn solve_top(&self, b: &mut Mat) {
        let tree = self.factor.skeleton_tree().tree();
        let ctx = self.factor.factor_tree().ctx();
        let nrhs = b.ncols();
        for level in (0..self.cut.level).rev() {
            for &node in tree.nodes_at_level(level) {
                let (l, r) = tree.node(node).children.expect("validated at partition time");
                let rows = b.rb_mut().submatrix_mut(tree.node(node).range(), 0..nrhs);
                let (ul, ur) = rows.split_at_row(tree.node(l).len());
                ctx.smw_correct(node, l, r, ul, ur);
            }
        }
    }

    /// The sharded solve: every shard's local solve, in shard order on the
    /// calling thread, followed by the shared top sweep. Bitwise-identical
    /// to [`FactorTree::solve_mat_in_place`](crate::FactorTree::solve_mat_in_place)
    /// on the same `b`.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `b.nrows()` is not the problem size.
    pub fn solve_mat_in_place(&self, b: &mut Mat) -> Result<(), SolverError> {
        check_rhs_rows(self.n(), b.nrows())?;
        let nrhs = b.ncols();
        for s in 0..self.shards() {
            self.solve_local(s, b.rb_mut().submatrix_mut(self.shard_range(s), 0..nrhs));
        }
        self.solve_top(b);
        Ok(())
    }
}
