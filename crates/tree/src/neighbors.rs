//! k-nearest-neighbor search: blocked filter-and-refine by default, a
//! per-query scalar reference behind `KFDS_KNN`.
//!
//! ASKIT uses per-point nearest-neighbor lists to choose the sampled rows
//! `S'` of the skeletonization targets (§II-A: "κ is the number of nearest
//! neighbors used for skeletonization sampling"). Two paths exist for both
//! the exact and the approximate search, selected by `KFDS_KNN` (see
//! [`crate::dist_tiles`]):
//!
//! * **blocked** (default): every block of queries meets its candidates
//!   through the fused filter of [`crate::dist_tiles`] — a register-tile
//!   kernel that flags the pairs whose norms+Gram distance is under the
//!   query's current k-th best plus a rounding slack — and only flagged
//!   pairs are re-scored with the scalar [`sq_dist`] and offered to the
//!   query's [`KBest`] heap. The exact search is a leaf-blocked
//!   all-nearest-neighbors traversal (query leaf against candidate leaf,
//!   node-vs-node ball bounds pruned against the *max* of the leaf's
//!   k-th-best radii); the approximate one runs its projection trees in
//!   turn, the buckets of a tree in parallel, over per-point heaps that
//!   persist across trees. A query's first block is seeded from one GEMM
//!   tile so it refines about k candidates there, not all of them.
//! * **scalar** (`KFDS_KNN=scalar`): the per-query ball-tree descent and
//!   per-pair `sq_dist` scoring, kept as the reference.
//!
//! Heaps hold exact `sq_dist` values on every path and order candidates by
//! `(distance, index)`, and neither the filter nor a prune ever drops a
//! candidate that could enter one, so the blocked search, the scalar
//! search and [`knn_brute_force`] return the same indices and the same
//! distance bits — at any SIMD level, thread count or translation of the
//! data.

use crate::balltree::BallTree;
use crate::dist_tiles::{self, QueryBlock};
use crate::points::{sq_dist, PointSet};
use kfds_la::{workspace, MatMut};
use rayon::prelude::*;
use std::cmp::Ordering;

/// k-nearest-neighbor lists for every point of a tree's point set.
///
/// Indices are **permuted positions** (the tree's ordering), which is what
/// the skeletonization consumes directly.
#[derive(Clone, Debug)]
pub struct NeighborLists {
    k: usize,
    /// Row-major `n x k`: `idx[i*k + j]` = j-th nearest neighbor of point i.
    idx: Vec<u32>,
    /// Matching squared distances.
    dist: Vec<f64>,
}

impl NeighborLists {
    /// Number of neighbors per point.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Neighbors of point `i` (permuted positions), nearest first.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.idx[i * self.k..(i + 1) * self.k]
    }

    /// Squared distances to the neighbors of `i`, nearest first.
    pub fn distances(&self, i: usize) -> &[f64] {
        &self.dist[i * self.k..(i + 1) * self.k]
    }
}

/// `(dist, idx)` lexicographic "less than" — the total order used for all
/// heap comparisons and output sorting. Breaking exact distance ties by
/// index makes the selected set (and its order) independent of insertion
/// order, which is what lets the blocked and scalar paths return
/// bitwise-identical lists.
#[inline]
fn cand_lt(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Comparator form of [`cand_lt`] for sorts.
fn cand_cmp(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.partial_cmp(&b.0).expect("NaN distance").then(a.1.cmp(&b.1))
}

/// A bounded max-heap of `(distance, index)` candidates under the
/// lexicographic order of [`cand_lt`].
#[derive(Default)]
struct KBest {
    k: usize,
    heap: Vec<(f64, u32)>,
}

impl KBest {
    fn new(k: usize) -> Self {
        KBest { k, heap: Vec::with_capacity(k + 1) }
    }

    /// Current k-th-best squared distance (∞ while the heap is short) —
    /// the pruning radius τ.
    #[inline]
    fn worst(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap[0].0
        }
    }

    fn push(&mut self, d: f64, i: u32) {
        let e = (d, i);
        if self.heap.len() < self.k {
            self.heap.push(e);
            // Sift up.
            let mut c = self.heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if cand_lt(self.heap[p], self.heap[c]) {
                    self.heap.swap(p, c);
                    c = p;
                } else {
                    break;
                }
            }
        } else if cand_lt(e, self.heap[0]) {
            self.heap[0] = e;
            // Sift down.
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < self.heap.len() && cand_lt(self.heap[m], self.heap[l]) {
                    m = l;
                }
                if r < self.heap.len() && cand_lt(self.heap[m], self.heap[r]) {
                    m = r;
                }
                if m == p {
                    break;
                }
                self.heap.swap(p, m);
                p = m;
            }
        }
    }

    /// Whether candidate `i` is already kept — the approximate search
    /// meets a near neighbor again in most trees.
    #[inline]
    fn contains(&self, i: u32) -> bool {
        self.heap.iter().any(|&(_, j)| j == i)
    }

    /// The kept candidates, `(dist, idx)`-sorted nearest first.
    fn into_sorted(self) -> Vec<(f64, u32)> {
        let mut h = self.heap;
        h.sort_by(cand_cmp);
        h
    }
}

/// Computes exact k-nearest neighbors (excluding the point itself) for all
/// points in `tree`, in parallel.
///
/// Dispatches on the `KFDS_KNN` switch: the leaf-blocked filter-and-refine
/// traversal by default, the scalar per-query descent under
/// `KFDS_KNN=scalar` (or [`crate::dist_tiles::set_knn_blocked`]`(false)`);
/// both return exactly [`knn_brute_force`]'s lists. A set of fewer than two
/// points has no neighbours to find: the lists come back empty
/// (`k() == 0`), whatever `k` was asked for.
///
/// # Panics
/// Panics if `k >= n` or `k == 0`, on two points or more.
pub fn knn_all(tree: &BallTree, k: usize) -> NeighborLists {
    let n = tree.points().len();
    if n < 2 {
        return NeighborLists { k: 0, idx: Vec::new(), dist: Vec::new() };
    }
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");
    if dist_tiles::knn_blocked_active() {
        knn_all_blocked(tree, k)
    } else {
        knn_all_scalar(tree, k)
    }
}

/// Scalar exact path: one ball-tree descent per query point.
fn knn_all_scalar(tree: &BallTree, k: usize) -> NeighborLists {
    let n = tree.points().len();
    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];

    idx.par_chunks_mut(k).zip(dist.par_chunks_mut(k)).enumerate().for_each(|(q, (irow, drow))| {
        let mut best = KBest::new(k);
        search(tree, tree.root(), q, &mut best);
        for (j, (d, i)) in best.into_sorted().into_iter().enumerate() {
            irow[j] = i;
            drow[j] = d;
        }
    });

    NeighborLists { k, idx, dist }
}

/// Blocked exact path: leaf-blocked all-nearest-neighbors, parallel over
/// query leaves, one filter call per surviving leaf×leaf pair.
fn knn_all_blocked(tree: &BallTree, k: usize) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    let (norms, max_norm) = sq_norms_and_max(pts);
    let norms: &[f64] = &norms;

    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];

    // Leaves are preorder, so their (contiguous) ranges ascend and tile the
    // output rows exactly: carve one output chunk per query leaf.
    let leaves = tree.leaves();
    let mut jobs: Vec<(usize, &mut [u32], &mut [f64])> = Vec::with_capacity(leaves.len());
    let mut idx_rest: &mut [u32] = &mut idx;
    let mut dist_rest: &mut [f64] = &mut dist;
    for &lf in &leaves {
        let m = tree.node(lf).len();
        let (ichunk, irest) = idx_rest.split_at_mut(m * k);
        let (dchunk, drest) = dist_rest.split_at_mut(m * k);
        idx_rest = irest;
        dist_rest = drest;
        jobs.push((lf, ichunk, dchunk));
    }

    jobs.into_par_iter().for_each(|(lf, irow, drow)| {
        leaf_all_nn(tree, norms, max_norm, lf, k, irow, drow);
    });

    NeighborLists { k, idx, dist }
}

/// `‖x_i‖²` of every point (pooled) and the largest of them — what the
/// filter's slack is proportional to.
fn sq_norms_and_max(pts: &PointSet) -> (workspace::WsVec, f64) {
    let mut norms = workspace::take(pts.len());
    pts.sq_norms_into(&mut norms);
    let max_norm = norms.iter().copied().fold(0.0, f64::max);
    (norms, max_norm)
}

/// Squared lower bound on the *computed* `sq_dist` between any two points
/// of two balls whose centers are `center_dist` apart and whose radii sum
/// to `radii` — `max(0, center_dist − radii)²`, with the gap first reduced
/// by `(d + 8)·ε·(center_dist + radii)`. That margin is twice what the
/// roundings can add up to: `center_dist` and each radius are square roots
/// of `sq_dist` values, good to `(d/2 + 2)·ε/2` relative, and a computed
/// `sq_dist` can sit `(d + 2)·ε/2` under the true squared distance. A node
/// is skipped only when this bound is *strictly* above the k-th best: an
/// equal-distance candidate with a smaller index still enters a heap.
fn ball_gap_sq(d: usize, center_dist: f64, radii: f64) -> f64 {
    let margin = (d as f64 + 8.0) * f64::EPSILON * (center_dist + radii);
    let gap = (center_dist - radii - margin).max(0.0);
    gap * gap
}

/// Moves every query's filter threshold to its heap's current k-th best
/// and returns `τ`, the largest of them — the leaf's pruning radius.
fn tighten(block: &mut QueryBlock, best: &[KBest]) -> f64 {
    let mut tau = 0.0f64;
    for (i, b) in best.iter().enumerate() {
        block.set_worst(i, b.worst());
        tau = tau.max(b.worst());
    }
    tau
}

/// All-nearest-neighbors for the queries of one leaf: the self tile seeds
/// the heaps (and with them `τ = max_i worst_i`), then a closer-child-first
/// DFS over candidate nodes filters every leaf it cannot prune.
fn leaf_all_nn(
    tree: &BallTree,
    norms: &[f64],
    max_norm: f64,
    lf: usize,
    k: usize,
    irow: &mut [u32],
    drow: &mut [f64],
) {
    let pts = tree.points();
    let d = pts.dim();
    let nd = tree.node(lf);
    let qr = nd.range();
    let m = nd.len();
    let panel = |r: &std::ops::Range<usize>| &pts.as_slice()[r.start * d..r.end * d];

    let mut best: Vec<KBest> = (0..m).map(|_| KBest::new(k)).collect();
    let mut block = QueryBlock::new(panel(&qr), &norms[qr.clone()], max_norm);

    let mut tile = workspace::take(m * m);
    let seed = MatMut::from_parts(&mut tile, m, m, m);
    dist_tiles::dist_tile_ranges(pts, norms, qr.clone(), qr.clone(), seed);
    dist_tiles::seed_hits(
        &tile,
        m,
        k,
        |i| block.slack(i),
        |i, j| best[i].push(pts.sq_dist(qr.start + i, qr.start + j), (qr.start + j) as u32),
    );
    let mut tau = tighten(&mut block, &best);

    let (qc, qrad) = (&nd.center, nd.radius);
    let mut stack: Vec<usize> = Vec::with_capacity(2 * tree.depth() + 2);
    stack.push(tree.root());
    while let Some(c) = stack.pop() {
        if c == lf {
            continue;
        }
        let cn = tree.node(c);
        if ball_gap_sq(d, sq_dist(qc, &cn.center).sqrt(), qrad + cn.radius) > tau {
            continue;
        }
        if cn.is_leaf() {
            let cr = cn.range();
            block.filter(panel(&cr), &norms[cr.clone()], |i, j| {
                best[i].push(pts.sq_dist(qr.start + i, cr.start + j), (cr.start + j) as u32);
            });
            tau = tighten(&mut block, &best);
        } else {
            let (l, r) = cn.children.expect("internal node");
            let dl = sq_dist(qc, &tree.node(l).center);
            let dr = sq_dist(qc, &tree.node(r).center);
            // Push the farther child first so the closer one pops first.
            if dl <= dr {
                stack.push(r);
                stack.push(l);
            } else {
                stack.push(l);
                stack.push(r);
            }
        }
    }

    for (i, b) in best.into_iter().enumerate() {
        for (j, (dd, id)) in b.into_sorted().into_iter().enumerate() {
            irow[i * k + j] = id;
            drow[i * k + j] = dd;
        }
    }
}

/// Scalar recursive descent for one query (the reference exact path).
fn search(tree: &BallTree, node: usize, q: usize, best: &mut KBest) {
    let nd = tree.node(node);
    let pts = tree.points();
    let qp = pts.point(q);
    if nd.is_leaf() {
        for i in nd.range() {
            if i != q {
                let d = sq_dist(qp, pts.point(i));
                best.push(d, i as u32);
            }
        }
        return;
    }
    let (l, r) = nd.children.expect("internal node");
    // Visit the closer child first for tighter pruning bounds.
    let dl = sq_dist(qp, &tree.node(l).center);
    let dr = sq_dist(qp, &tree.node(r).center);
    let order = if dl <= dr { [l, r] } else { [r, l] };
    for &c in &order {
        let cn = tree.node(c);
        let center_dist = sq_dist(qp, &cn.center).sqrt();
        // `<=`, like the blocked prune: a tie at the k-th best can still
        // enter on its index.
        if ball_gap_sq(pts.dim(), center_dist, cn.radius) <= best.worst() {
            search(tree, c, q, best);
        }
    }
}

/// Approximate kNN via randomized projection trees — the scheme ASKIT
/// uses in high ambient dimensions, where ball-pruned exact search
/// degenerates to `O(N²d)`.
///
/// `n_trees` random trees are built by recursively splitting on random
/// directions at the median; each point's candidate set is the union of
/// its leaf buckets across trees, and distances are computed only among
/// candidates: `O(T·N·bucket·d)` total. Recall improves with `n_trees`;
/// indices refer to the *permuted* positions of `tree`, like [`knn_all`].
///
/// The blocked path (default) builds the same trees from batched, cached
/// projection keys (one SIMD dot per point per split instead of two dots
/// per comparator call), then takes the trees in turn: the buckets of one
/// tree run in parallel, each filtering its members against each other
/// (see [`crate::dist_tiles`]) into per-point heaps that persist from tree
/// to tree, so nothing of size `n_trees · n · bucket` is ever held.
/// `KFDS_KNN=scalar` keeps per-pair `sq_dist` scoring over sort-deduped
/// merged bucket lists and in-comparator projections. Bucket structure is
/// identical on both paths (the cached keys are the same dots), and so are
/// the lists: each is the `(dist, idx)`-smallest `k` of the same union.
///
/// # Panics
/// Panics if `k >= n`, `k == 0`, or `n_trees == 0`.
pub fn knn_approximate(tree: &BallTree, k: usize, n_trees: usize, seed: u64) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");
    assert!(n_trees > 0, "need at least one projection tree");
    let bucket = (4 * k).max(32).min(n);
    let blocked = dist_tiles::knn_blocked_active();

    // For each projection tree, bucket ids per point. Trees are independent
    // and seeded per index, so the blocked path builds them in parallel.
    let build_one = |t: usize| projection_tree_buckets(pts, t, seed, bucket, blocked);
    let buckets: Vec<Vec<u32>> = if blocked {
        (0..n_trees).into_par_iter().map(build_one).collect()
    } else {
        (0..n_trees).map(build_one).collect()
    };

    // Invert: members per (tree, bucket), ascending within each bucket.
    let members: Vec<Vec<Vec<u32>>> = buckets
        .iter()
        .map(|assignment| {
            let nb = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
            let mut m = vec![Vec::new(); nb];
            for (i, &b) in assignment.iter().enumerate() {
                m[b as usize].push(i as u32);
            }
            m
        })
        .collect();

    let mut idx_out = vec![0u32; n * k];
    let mut dist_out = vec![0.0f64; n * k];

    if blocked {
        let (norms, max_norm) = sq_norms_and_max(pts);
        let norms: &[f64] = &norms;
        // A point sits in exactly one bucket of a tree, so the bucket jobs
        // of one tree need disjoint heaps: move each bucket's heaps into
        // its job, run the jobs in parallel, move them back.
        let mut heaps: Vec<KBest> = (0..n).map(|_| KBest::new(k)).collect();
        for (t, tree_buckets) in members.iter().enumerate() {
            let jobs: Vec<(&Vec<u32>, Vec<KBest>)> = tree_buckets
                .iter()
                .map(|mem| {
                    (mem, mem.iter().map(|&i| std::mem::take(&mut heaps[i as usize])).collect())
                })
                .collect();
            let done: Vec<Vec<KBest>> = jobs
                .into_par_iter()
                .map(|(mem, mut own)| {
                    if t == 0 {
                        seed_bucket(pts, norms, max_norm, mem, k, &mut own);
                    } else {
                        filter_bucket(pts, norms, max_norm, mem, &mut own);
                    }
                    own
                })
                .collect();
            for (mem, own) in tree_buckets.iter().zip(done) {
                for (&i, h) in mem.iter().zip(own) {
                    heaps[i as usize] = h;
                }
            }
        }
        idx_out
            .par_chunks_mut(k)
            .zip(dist_out.par_chunks_mut(k))
            .zip(heaps.into_par_iter())
            .enumerate()
            .for_each(|(q, ((irow, drow), best))| finalize_approx_row(pts, q, best, k, irow, drow));
    } else {
        idx_out.par_chunks_mut(k).zip(dist_out.par_chunks_mut(k)).enumerate().for_each(
            |(q, (irow, drow))| {
                // Merge the query's bucket lists and sort-dedup them (the
                // lists are short and sorted, so one sort of the
                // concatenation beats a per-push linear scan by orders of
                // magnitude).
                let mut cand = Vec::<u32>::with_capacity(n_trees * bucket);
                for t in 0..n_trees {
                    cand.extend_from_slice(&members[t][buckets[t][q] as usize]);
                }
                cand.sort_unstable();
                cand.dedup();
                if let Ok(p) = cand.binary_search(&(q as u32)) {
                    cand.remove(p);
                }
                let mut best = KBest::new(k);
                for &c in cand.iter() {
                    best.push(pts.sq_dist(q, c as usize), c);
                }
                finalize_approx_row(pts, q, best, k, irow, drow);
            },
        );
    }

    NeighborLists { k, idx: idx_out, dist: dist_out }
}

/// A bucket of the first projection tree on the blocked path, `heaps[i]`
/// being the (empty) heap of `mem[i]`: every member is seeded from the
/// bucket's symmetric tile with the ~k other members it can take.
fn seed_bucket(
    pts: &PointSet,
    norms: &[f64],
    max_norm: f64,
    mem: &[u32],
    k: usize,
    heaps: &mut [KBest],
) {
    let len = mem.len();
    let mut tile = workspace::take(len * len);
    dist_tiles::dist_tile_sym(pts, norms, mem, MatMut::from_parts(&mut tile, len, len, len));
    dist_tiles::seed_hits(
        &tile,
        len,
        k,
        |i| dist_tiles::filter_slack(pts.dim(), norms[mem[i] as usize], max_norm),
        |i, j| heaps[i].push(pts.sq_dist(mem[i] as usize, mem[j] as usize), mem[j]),
    );
}

/// A bucket of a later tree: one filter call of its members against each
/// other under the thresholds the earlier trees left; a flagged candidate
/// a heap already keeps is skipped before its distance is computed.
fn filter_bucket(pts: &PointSet, norms: &[f64], max_norm: f64, mem: &[u32], heaps: &mut [KBest]) {
    let d = pts.dim();
    let mut xc = workspace::take(d * mem.len());
    let mut rn = workspace::take(mem.len());
    dist_tiles::gather_panel(pts, norms, mem, &mut xc, &mut rn);
    let mut block = QueryBlock::new(&xc, &rn, max_norm);
    tighten(&mut block, heaps);
    block.filter(&xc, &rn, |i, j| {
        if i != j && !heaps[i].contains(mem[j]) {
            heaps[i].push(sq_dist(&xc[i * d..(i + 1) * d], &xc[j * d..(j + 1) * d]), mem[j]);
        }
    });
}

/// Shared tail of both approximate paths: `(dist, idx)` sort, row
/// write-out, and the candidates-short-of-`k` padding with the smallest
/// indices not already present (sorted among themselves, so the row stays
/// duplicate-free).
fn finalize_approx_row(
    pts: &PointSet,
    q: usize,
    best: KBest,
    k: usize,
    irow: &mut [u32],
    drow: &mut [f64],
) {
    let sel = best.into_sorted();
    for (j, &(d, i)) in sel.iter().enumerate() {
        irow[j] = i;
        drow[j] = d;
    }
    if sel.len() < k {
        let mut pad: Vec<(f64, u32)> = Vec::with_capacity(k - sel.len());
        let mut c = 0u32;
        while sel.len() + pad.len() < k {
            if c as usize != q && !sel.iter().any(|&(_, i)| i == c) {
                pad.push((pts.sq_dist(q, c as usize), c));
            }
            c += 1;
        }
        pad.sort_by(cand_cmp);
        for (j, &(d, i)) in pad.iter().enumerate() {
            irow[sel.len() + j] = i;
            drow[sel.len() + j] = d;
        }
    }
}

/// Builds one randomized projection tree and returns the bucket id per
/// point. Splits are identical on both paths — the blocked path computes
/// each point's projection once per split into a cached key buffer (the
/// same `blas1::dot`), the scalar path recomputes dots inside the
/// comparator like the original implementation.
fn projection_tree_buckets(
    pts: &PointSet,
    t: usize,
    seed: u64,
    bucket: usize,
    blocked: bool,
) -> Vec<u32> {
    let n = pts.len();
    let d = pts.dim();
    let mut assignment = vec![0u32; n];
    let mut idx: Vec<usize> = (0..n).collect();
    let mut next_bucket = 0u32;
    // Deterministic per-tree RNG (splitmix-style stream).
    let mut state = seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // Iterative median splits on random directions.
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    let mut dir = vec![0.0f64; d];
    let mut keys = workspace::take(n);
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo <= bucket {
            for &i in &idx[lo..hi] {
                assignment[i] = next_bucket;
            }
            next_bucket += 1;
            continue;
        }
        for v in &mut dir {
            *v = rnd();
        }
        let mid = lo + (hi - lo) / 2;
        if blocked {
            for &i in &idx[lo..hi] {
                keys[i] = kfds_la::blas1::dot(pts.point(i), &dir);
            }
            idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                keys[a].partial_cmp(&keys[b]).expect("NaN projection")
            });
        } else {
            idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                let pa = kfds_la::blas1::dot(pts.point(a), &dir);
                let pb = kfds_la::blas1::dot(pts.point(b), &dir);
                pa.partial_cmp(&pb).expect("NaN projection")
            });
        }
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    assignment
}

/// Fraction of exact k-nearest neighbors recovered by `approx` (averaged
/// over points) — the recall metric for [`knn_approximate`].
pub fn knn_recall(exact: &NeighborLists, approx: &NeighborLists) -> f64 {
    assert_eq!(exact.k(), approx.k());
    let k = exact.k();
    let n = exact.idx.len() / k;
    let mut hits = 0usize;
    for i in 0..n {
        let e = exact.neighbors(i);
        for c in approx.neighbors(i) {
            if e.contains(c) {
                hits += 1;
            }
        }
    }
    hits as f64 / (n * k) as f64
}

/// Brute-force kNN reference (O(n² d)); used for testing and tiny inputs.
/// Rows are `(dist, idx)`-sorted like both production paths.
pub fn knn_brute_force(tree: &BallTree, k: usize) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    assert!(k > 0 && k < n);
    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];
    for q in 0..n {
        let mut cands: Vec<(f64, u32)> =
            (0..n).filter(|&i| i != q).map(|i| (pts.sq_dist(q, i), i as u32)).collect();
        cands.sort_by(cand_cmp);
        for j in 0..k {
            idx[q * k + j] = cands[j].1;
            dist[q * k + j] = cands[j].0;
        }
    }
    NeighborLists { k, idx, dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;
    use std::sync::Mutex;

    /// Serializes tests that flip the process-global `KFDS_KNN` override.
    static SWITCH_LOCK: Mutex<()> = Mutex::new(());

    fn rand_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        PointSet::from_col_major(d, data)
    }

    fn assert_lists_bitwise_eq(a: &NeighborLists, b: &NeighborLists, n: usize, what: &str) {
        assert_eq!(a.k(), b.k());
        for i in 0..n {
            assert_eq!(a.neighbors(i), b.neighbors(i), "{what}: indices of point {i}");
            for (x, y) in a.distances(i).iter().zip(b.distances(i)) {
                assert!(x.to_bits() == y.to_bits(), "{what}: distances of point {i}: {x} vs {y}");
            }
        }
    }

    /// Every point of `p` moved by `shift` in every coordinate.
    fn translated(p: &PointSet, shift: f64) -> PointSet {
        let data = p.as_slice().iter().map(|v| v + shift).collect();
        PointSet::from_col_major(p.dim(), data)
    }

    /// The one-answer contract of the exact search: blocked, scalar and
    /// brute force return the same indices and the same distance bits.
    fn assert_exact_routes_agree(t: &BallTree, k: usize, what: &str) {
        let n = t.points().len();
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(true);
        let blocked = knn_all(t, k);
        crate::dist_tiles::set_knn_blocked(false);
        let scalar = knn_all(t, k);
        crate::dist_tiles::set_knn_blocked(true);
        let brute = knn_brute_force(t, k);
        assert_lists_bitwise_eq(&blocked, &brute, n, &format!("{what}: blocked vs brute force"));
        assert_lists_bitwise_eq(&scalar, &brute, n, &format!("{what}: scalar vs brute force"));
    }

    /// The same for the approximate search: blocked == scalar.
    fn assert_approx_routes_agree(t: &BallTree, k: usize, n_trees: usize, what: &str) {
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(true);
        let blocked = knn_approximate(t, k, n_trees, 9);
        crate::dist_tiles::set_knn_blocked(false);
        let scalar = knn_approximate(t, k, n_trees, 9);
        crate::dist_tiles::set_knn_blocked(true);
        assert_lists_bitwise_eq(&blocked, &scalar, t.points().len(), what);
    }

    #[test]
    fn knn_matches_brute_force() {
        let p = rand_points(200, 3, 42);
        let t = BallTree::build(&p, 16);
        assert_exact_routes_agree(&t, 5, "uniform 3-d");
    }

    #[test]
    fn dual_tree_matches_brute_force_on_clustered_points() {
        // Clustered data exercises the ball-pruning bound hard: most
        // leaf×leaf pairs must prune, the survivors must still be exact.
        let p = crate::datasets::gaussian_mixture(500, 6, 8, 0.05, 11);
        let t = BallTree::build(&p, 16);
        assert_exact_routes_agree(&t, 8, "clustered");
    }

    #[test]
    fn far_translated_cloud_keeps_exact_neighbors() {
        // ‖x‖² ~ 6e14 against neighbor distances ~1e-2: the norms+Gram
        // distance is pure cancellation noise here. It may only ever
        // nominate candidates — the lists must still be brute force's.
        let p = translated(&crate::datasets::normal_embedded(1500, 3, 6, 0.05, 7), 1e7);
        let t = BallTree::build(&p, 64);
        assert_exact_routes_agree(&t, 8, "cloud at 1e7");
        assert_approx_routes_agree(&t, 8, 4, "cloud at 1e7, approximate");
    }

    #[test]
    fn near_tie_lattice_matches_brute_force_at_any_offset() {
        // Spacings 1 / 1.01 / 1.02: every point's neighbor distances come in
        // groups 1e-2 apart in relative terms — and at offset 1e8 far below
        // the resolution of ‖x‖² ~ 3e16.
        for offset in [0.0, 1e8] {
            let mut p = PointSet::with_capacity(3, 1000);
            for a in 0..10 {
                for b in 0..10 {
                    for c in 0..10 {
                        let (x, y, z) = (a as f64, 1.01 * b as f64, 1.02 * c as f64);
                        p.push(&[offset + x, offset + y, offset + z]);
                    }
                }
            }
            let t = BallTree::build(&p, 32);
            assert_exact_routes_agree(&t, 6, &format!("lattice at {offset}"));
            assert_approx_routes_agree(&t, 6, 3, &format!("lattice at {offset}, approximate"));
        }
    }

    #[test]
    fn heaps_full_of_ties_still_take_smaller_indices() {
        // 30 sites x 20 copies against k = 8: every heap fills with zeros
        // at once, and the other equal-distance copies — some with smaller
        // indices, which the (dist, idx) order prefers — sit in leaves whose
        // ball bound is exactly the k-th best. A `>=` prune (or a `<`
        // descent) never looks at them.
        let sites = rand_points(30, 4, 5);
        let mut p = PointSet::with_capacity(4, 600);
        for _copy in 0..20 {
            for i in 0..30 {
                p.push(sites.point(i));
            }
        }
        let t = BallTree::build(&p, 16);
        assert_exact_routes_agree(&t, 8, "20 copies");
        assert_approx_routes_agree(&t, 8, 3, "20 copies, approximate");
    }

    #[test]
    fn ragged_leaves_and_leaves_no_larger_than_k() {
        // n = 35 at leaf size 8 splits into leaves of 4, 5 and 8 points:
        // packed groups with padding rows, and (k = 6) seed tiles with
        // fewer candidates than k, whose heaps stay short into the DFS.
        let p = rand_points(35, 5, 23);
        let t = BallTree::build(&p, 8);
        let sizes: Vec<usize> = t.leaves().iter().map(|&l| t.node(l).len()).collect();
        assert!(sizes.iter().any(|&m| m < 8) && sizes.iter().any(|&m| m <= 6), "{sizes:?}");
        assert_exact_routes_agree(&t, 6, "ragged");
        assert_approx_routes_agree(&t, 6, 3, "ragged, approximate");
        // One leaf, and k = n − 1.
        let t = BallTree::build(&p, 64);
        assert_exact_routes_agree(&t, 34, "single leaf");
    }

    #[test]
    fn dual_tree_handles_coincident_points() {
        // 40 distinct sites, each duplicated 4 times: every point has 3
        // exact-zero neighbors, ties broken by index identically to the
        // brute-force reference.
        let sites = rand_points(40, 5, 77);
        let mut p = PointSet::with_capacity(5, 160);
        for _copy in 0..4 {
            for i in 0..40 {
                p.push(sites.point(i));
            }
        }
        let t = BallTree::build(&p, 8);
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(true);
        let fast = knn_all(&t, 5);
        let slow = knn_brute_force(&t, 5);
        assert_lists_bitwise_eq(&fast, &slow, 160, "coincident");
        for i in 0..160 {
            assert_eq!(fast.distances(i)[..3], [0.0, 0.0, 0.0], "point {i}");
        }
    }

    #[test]
    fn blocked_and_scalar_exact_paths_agree_bitwise() {
        let p = rand_points(300, 8, 4);
        let t = BallTree::build(&p, 16);
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(true);
        let blocked = knn_all(&t, 7);
        crate::dist_tiles::set_knn_blocked(false);
        let scalar = knn_all(&t, 7);
        crate::dist_tiles::set_knn_blocked(true);
        assert_lists_bitwise_eq(&blocked, &scalar, 300, "exact A/B");
    }

    #[test]
    fn blocked_and_scalar_approx_paths_agree_bitwise() {
        let p = rand_points(250, 12, 21);
        let t = BallTree::build(&p, 16);
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(true);
        let blocked = knn_approximate(&t, 6, 4, 9);
        crate::dist_tiles::set_knn_blocked(false);
        let scalar = knn_approximate(&t, 6, 4, 9);
        crate::dist_tiles::set_knn_blocked(true);
        assert_lists_bitwise_eq(&blocked, &scalar, 250, "approx A/B");
    }

    #[test]
    fn scalar_exact_path_matches_brute_force_bitwise() {
        // The scalar path is the reference: distances AND indices must
        // reproduce the brute-force (dist, idx) order exactly.
        let p = rand_points(180, 4, 15);
        let t = BallTree::build(&p, 8);
        let _g = SWITCH_LOCK.lock().unwrap();
        crate::dist_tiles::set_knn_blocked(false);
        let fast = knn_all(&t, 6);
        crate::dist_tiles::set_knn_blocked(true);
        let slow = knn_brute_force(&t, 6);
        assert_lists_bitwise_eq(&fast, &slow, 180, "scalar vs brute");
    }

    #[test]
    fn knn_excludes_self_and_sorted() {
        let p = rand_points(100, 4, 7);
        let t = BallTree::build(&p, 8);
        let nn = knn_all(&t, 6);
        for i in 0..100 {
            let ds = nn.distances(i);
            for w in ds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for &j in nn.neighbors(i) {
                assert_ne!(j as usize, i);
            }
        }
    }

    #[test]
    fn knn_on_line_finds_adjacent() {
        // Points on a line at integer positions: nearest neighbor of i is
        // i-1 or i+1 (in permuted coordinates we check distances instead).
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let p = PointSet::from_col_major(1, data);
        let t = BallTree::build(&p, 4);
        let nn = knn_all(&t, 2);
        for i in 0..50 {
            assert!(nn.distances(i)[0] <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn approximate_knn_recall() {
        // Low intrinsic dimension: projection trees should recover most
        // true neighbors with a handful of trees.
        let p = crate::datasets::normal_embedded(400, 3, 24, 0.05, 5);
        let t = BallTree::build(&p, 16);
        let exact = knn_all(&t, 8);
        let approx = knn_approximate(&t, 8, 6, 42);
        let recall = knn_recall(&exact, &approx);
        assert!(recall > 0.7, "recall {recall}");
        // More trees => recall does not get (much) worse.
        let approx1 = knn_approximate(&t, 8, 1, 42);
        let r1 = knn_recall(&exact, &approx1);
        assert!(recall >= r1 - 0.05, "6 trees {recall} vs 1 tree {r1}");
    }

    #[test]
    fn approximate_knn_well_formed() {
        let p = rand_points(150, 8, 3);
        let t = BallTree::build(&p, 16);
        let nn = knn_approximate(&t, 5, 3, 7);
        for i in 0..150 {
            let ds = nn.distances(i);
            for w in ds.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            for &j in nn.neighbors(i) {
                assert_ne!(j as usize, i, "self-neighbor at {i}");
                assert!((j as usize) < 150);
            }
        }
    }

    #[test]
    fn approximate_padding_is_distinct_and_tail_sorted() {
        // k close to n with a single tree forces candidates < k for some
        // queries; padded rows must still be duplicate-free and self-free.
        let p = rand_points(40, 3, 31);
        let t = BallTree::build(&p, 8);
        for &blocked in &[true, false] {
            let _g = SWITCH_LOCK.lock().unwrap();
            crate::dist_tiles::set_knn_blocked(blocked);
            let nn = knn_approximate(&t, 36, 1, 3);
            crate::dist_tiles::set_knn_blocked(true);
            for i in 0..40 {
                let mut ids: Vec<u32> = nn.neighbors(i).to_vec();
                assert!(!ids.contains(&(i as u32)), "self-neighbor at {i} (blocked={blocked})");
                ids.sort_unstable();
                let len = ids.len();
                ids.dedup();
                assert_eq!(ids.len(), len, "duplicate neighbors at {i} (blocked={blocked})");
            }
        }
    }

    #[test]
    fn high_dim_small_n() {
        let p = rand_points(30, 64, 9);
        let t = BallTree::build(&p, 8);
        assert_exact_routes_agree(&t, 3, "64-d");
    }
}
