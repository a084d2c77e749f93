//! Partitioning a complete factorization into rank-owned subtree shards.
//!
//! The paper's distributed algorithms (II.4/II.5) assign each rank a
//! subtree of the hierarchical factorization and keep only the top
//! `log p` levels shared. [`PartitionedFactor`] reproduces that ownership
//! shape over an already-built [`SharedFactor`]: cutting the tree at
//! level `log2(p)` yields `p` disjoint subtree roots whose solves are
//! fully independent (each is exactly the recursive Algorithm II.3 on its
//! subtree), plus a shared *top tree* of Sherman–Morrison–Woodbury
//! corrections that stitches the per-shard partial solves together.
//!
//! The split is bitwise-exact by construction: a shard solve runs the
//! same `solve_node` recursion on the same rows the single-node solve
//! would have recursed into, and the top sweep replays the identical
//! per-node `smw_correct` arithmetic bottom-up — both on row-block views
//! of the caller's matrix, exactly as the single-node recursion does, so
//! the top sweep touches only the rows it corrects. Only the order of
//! the node visits (and, across a transport, the scatter/gather payloads)
//! differs, so `PartitionedFactor::solve_mat_in_place` equals
//! [`FactorTree::solve_mat_in_place`](crate::FactorTree::solve_mat_in_place)
//! bit for bit — the property the sharded serve tier's A/B switch and ci
//! smoke lane assert.
//!
//! RHS movement between a router and shard owners is expressed through
//! [`kfds_rt::Transport`] (in-process channels today, wire-pluggable
//! later): [`scatter_rhs`](PartitionedFactor::scatter_rhs) sends each
//! shard its contiguous row block, [`gather_solutions`]
//! (PartitionedFactor::gather_solutions) writes the solved blocks back.

use crate::error::SolverError;
use crate::share::SharedFactor;
use kfds_kernels::Kernel;
use kfds_la::{Mat, MatMut};
use kfds_rt::Transport;
use std::ops::Range;

/// A complete factorization split at a cut level into `p` rank-owned
/// subtree shards plus the shared top tree.
///
/// Cheap to clone (`O(1)` — the factor is behind a [`SharedFactor`]
/// handle), so shard workers and the router can each hold one.
pub struct PartitionedFactor<K: Kernel + 'static> {
    factor: SharedFactor<K>,
    cut_level: usize,
    /// Subtree root node of each shard, sorted by row range.
    roots: Vec<usize>,
    /// Contiguous permuted row range owned by each shard.
    ranges: Vec<Range<usize>>,
}

impl<K: Kernel + 'static> Clone for PartitionedFactor<K> {
    fn clone(&self) -> Self {
        Self {
            factor: self.factor.clone(),
            cut_level: self.cut_level,
            roots: self.roots.clone(),
            ranges: self.ranges.clone(),
        }
    }
}

fn err(reason: impl Into<String>) -> SolverError {
    SolverError::Partition { reason: reason.into() }
}

impl<K: Kernel + 'static> PartitionedFactor<K> {
    /// Splits `factor` into `p` rank-owned subtree shards at cut level
    /// `log2(p)`.
    ///
    /// # Errors
    /// Returns [`SolverError::Partition`] when the split is impossible:
    /// `p` not a power of two, the tree too shallow to expose `p`
    /// subtrees, the factorization incomplete (level restriction — the
    /// top-tree corrections would be missing), or a malformed cut.
    pub fn partition(factor: SharedFactor<K>, p: usize) -> Result<Self, SolverError> {
        if p == 0 || !p.is_power_of_two() {
            return Err(err(format!("shard count {p} is not a power of two")));
        }
        if !factor.is_complete() {
            return Err(err("incomplete factorization (level restriction); the shared top tree \
                 requires every reduced system above the cut"));
        }
        let st = factor.skeleton_tree();
        let tree = st.tree();
        let cut_level = p.trailing_zeros() as usize;
        let cut = tree.nodes_at_level(cut_level);
        if cut.len() != p {
            return Err(err(format!(
                "tree exposes {} node(s) at level {cut_level}, need {p} subtree roots \
                 (tree too shallow for {p} shards?)",
                cut.len()
            )));
        }
        let mut roots = cut.to_vec();
        roots.sort_by_key(|&nd| tree.node(nd).range().start);
        let ranges: Vec<Range<usize>> = roots.iter().map(|&nd| tree.node(nd).range()).collect();
        let n = tree.points().len();
        let mut expect_start = 0usize;
        for (s, range) in ranges.iter().enumerate() {
            if range.start != expect_start || range.is_empty() {
                return Err(err(format!(
                    "cut is not a contiguous cover: shard {s} owns {range:?}"
                )));
            }
            expect_start = range.end;
        }
        if expect_start != n {
            return Err(err(format!("cut covers {expect_start} of {n} rows")));
        }
        // Every node strictly above the cut participates in the shared
        // top sweep: it must have two skeletonized children and (unless
        // both child ranks are zero) a factored reduced system.
        let factors = factor.factor_tree().factors();
        for level in 0..cut_level {
            for &node in tree.nodes_at_level(level) {
                let Some((l, r)) = tree.node(node).children else {
                    return Err(err(format!("node {node} above the cut is a leaf")));
                };
                for c in [l, r] {
                    if !st.is_skeletonized(c) {
                        return Err(err(format!(
                            "child {c} of top-tree node {node} has no skeleton"
                        )));
                    }
                }
                let ranks =
                    st.skeleton(l).map_or(0, |s| s.rank()) + st.skeleton(r).map_or(0, |s| s.rank());
                if ranks > 0 && factors[node].z_lu.is_none() {
                    return Err(err(format!("top-tree node {node} has no reduced system")));
                }
            }
        }
        Ok(Self { factor, cut_level, roots, ranges })
    }

    /// Number of shards `p`.
    pub fn shards(&self) -> usize {
        self.roots.len()
    }

    /// The cut level `log2(p)`.
    pub fn cut_level(&self) -> usize {
        self.cut_level
    }

    /// The underlying shared factorization handle.
    pub fn factor(&self) -> &SharedFactor<K> {
        &self.factor
    }

    /// Problem size (rows of the factorized system).
    pub fn n(&self) -> usize {
        self.factor.n()
    }

    /// Permuted row range owned by `shard`.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.ranges[shard].clone()
    }

    /// Subtree root node owned by `shard`.
    pub fn shard_root(&self, shard: usize) -> usize {
        self.roots[shard]
    }

    /// Runs the independent subtree solve of `shard` on its row block
    /// (a `|shard rows| x nrhs` view, permuted ordering) in place. This is
    /// the work a shard owner performs locally, and it is the exact
    /// recursion the single-node solve runs below the cut.
    pub fn solve_local(&self, shard: usize, block: MatMut<'_>) {
        assert_eq!(block.nrows(), self.ranges[shard].len(), "shard block rows mismatch");
        self.factor.factor_tree().ctx().solve_node(self.roots[shard], block);
    }

    /// Applies the shared top tree to `b` (`n x nrhs`, permuted ordering,
    /// all shard blocks already locally solved): Sherman–Morrison–Woodbury
    /// corrections bottom-up from just above the cut to the root, each
    /// node running the identical arithmetic of the recursive solve on the
    /// two row-block views of its children.
    pub fn solve_top(&self, b: &mut Mat) {
        assert_eq!(b.nrows(), self.n(), "solve_top: rhs rows mismatch");
        let tree = self.factor.skeleton_tree().tree();
        let ctx = self.factor.factor_tree().ctx();
        let nrhs = b.ncols();
        for level in (0..self.cut_level).rev() {
            for &node in tree.nodes_at_level(level) {
                let (l, r) = tree.node(node).children.expect("validated at partition time");
                let rows = b.rb_mut().submatrix_mut(tree.node(node).range(), 0..nrhs);
                let (ul, ur) = rows.split_at_row(tree.node(l).len());
                ctx.smw_correct(node, l, r, ul, ur);
            }
        }
    }

    /// Reference single-process sharded solve: every shard's local solve
    /// followed by the shared top sweep. Bitwise-identical to
    /// [`FactorTree::solve_mat_in_place`](crate::FactorTree::solve_mat_in_place)
    /// on the same `b`.
    pub fn solve_mat_in_place(&self, b: &mut Mat) {
        assert_eq!(b.nrows(), self.n(), "solve: rhs rows mismatch");
        let nrhs = b.ncols();
        for s in 0..self.shards() {
            self.solve_local(s, b.rb_mut().submatrix_mut(self.ranges[s].clone(), 0..nrhs));
        }
        self.solve_top(b);
    }

    /// Flattens `shard`'s row block of `b` column-major for the wire.
    pub fn pack_shard_rhs(&self, shard: usize, b: &Mat) -> Vec<f64> {
        let range = self.ranges[shard].clone();
        let mut out = Vec::with_capacity(range.len() * b.ncols());
        for j in 0..b.ncols() {
            out.extend_from_slice(&b.col(j)[range.clone()]);
        }
        out
    }

    /// Scatters each shard's RHS row block to transport rank `shard`
    /// under `tag`.
    pub fn scatter_rhs<T: Transport + ?Sized>(&self, t: &T, b: &Mat, tag: u32) {
        assert_eq!(b.nrows(), self.n(), "scatter: rhs rows mismatch");
        for s in 0..self.shards() {
            t.send_block(s, tag, &self.pack_shard_rhs(s, b));
        }
    }

    /// Gathers one solved block from every shard (in shard order) under
    /// `tag`, writing well-formed blocks into `b`. Returns the shards
    /// whose payload was malformed (e.g. the empty block a failed worker
    /// sends to keep the data plane drained); `b`'s rows for those shards
    /// are left untouched and the overall solve must be reported failed.
    pub fn gather_solutions<T: Transport + ?Sized>(
        &self,
        t: &T,
        b: &mut Mat,
        tag: u32,
    ) -> Vec<usize> {
        assert_eq!(b.nrows(), self.n(), "gather: rhs rows mismatch");
        let nrhs = b.ncols();
        let mut malformed = Vec::new();
        for s in 0..self.shards() {
            let payload = t.recv_block(s, tag);
            let rows = self.ranges[s].len();
            if nrhs == 0 || payload.len() != rows * nrhs {
                malformed.push(s);
                continue;
            }
            let range = self.ranges[s].clone();
            for j in 0..nrhs {
                b.col_mut(j)[range.clone()].copy_from_slice(&payload[j * rows..(j + 1) * rows]);
            }
        }
        malformed
    }
}
