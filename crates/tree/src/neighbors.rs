//! k-nearest-neighbor search: one blocked filter-and-refine search per
//! mode, each held to a brute-force reference.
//!
//! ASKIT uses per-point nearest-neighbor lists to choose the sampled rows
//! `S'` of the skeletonization targets (§II-A: "κ is the number of nearest
//! neighbors used for skeletonization sampling"). Both searches meet every
//! block of queries with its candidates through the fused filter of
//! [`crate::dist_tiles`] — a register-tile kernel that flags the pairs
//! whose norms+Gram distance is under the query's current k-th best plus a
//! rounding slack — and only flagged pairs are re-scored exactly and
//! offered to the query's list:
//!
//! * **exact** ([`knn_all`]): a leaf-blocked all-nearest-neighbors
//!   traversal (query leaf against candidate leaf, node-vs-node ball
//!   bounds pruned against the *max* of the leaf's k-th-best radii);
//! * **approximate** ([`knn_approximate`]): the projection trees, built
//!   together level by level ([`projection_buckets`]), searched in turn,
//!   the buckets of a tree in parallel, over per-point lists that persist
//!   across trees.
//!
//! A block's first pass — a leaf against itself, a bucket of the first
//! tree — is seeded from one GEMM tile, so a query refines about k
//! candidates there, not all of them. Within a block every unordered pair
//! is decided once: the seed reads both of its columns, and a later
//! tree's bucket is filtered over its upper block triangle with each
//! member's threshold on both sides of the pair (`QueryBlock::filter_self`);
//! a pair is scored once and offered to both points. Flagged pairs are
//! collected first and scored together by [`sq_dist_sums`] (eight
//! independent chains) with [`sq_dist`]'s bits.
//!
//! Lists hold exact `sq_dist` values and order candidates by `(distance,
//! index)`, and neither the filter nor a prune ever drops a candidate that
//! could enter one, so the exact search returns [`knn_brute_force`]'s
//! indices and distance bits, and the approximate one
//! [`knn_approximate_brute_force`]'s — at any SIMD level, thread count or
//! translation of the data.

use crate::balltree::BallTree;
use crate::dist_tiles::{self, QueryBlock};
use crate::points::{sq_dist, sq_dist_sums, PointSet};
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
/// list comparisons and output sorting. Breaking exact distance ties by
/// index makes the selected set (and its order) independent of insertion
/// order, which is what lets the searches return their brute-force
/// references' lists bit for bit.
#[inline]
fn cand_lt(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Comparator form of [`cand_lt`] for sorts.
fn cand_cmp(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.partial_cmp(&b.0).expect("NaN distance").then(a.1.cmp(&b.1))
}

/// The `k` least `(distance, index)` candidates offered so far to each of
/// a run of points, under the lexicographic order of [`cand_lt`], stored
/// flat: list `r` keeps its entries sorted at `r·k ..`, the first `len[r]`
/// of them in use, distances and indices in two arrays (entry `e` is
/// `(dist[e], ids[e])`). An offer's place is a branch-free count over the
/// entries, the membership scan reads the indices alone, the lists are in
/// output order, and a block's lists are one contiguous run.
struct Lists<'a> {
    k: usize,
    dist: &'a mut [f64],
    ids: &'a mut [u32],
    len: &'a mut [usize],
}

impl<'a> Lists<'a> {
    /// Current k-th-best squared distance of list `r` (∞ while it is
    /// short) — the pruning radius τ.
    #[inline]
    fn worst(&self, r: usize) -> f64 {
        if self.len[r] < self.k {
            f64::INFINITY
        } else {
            self.dist[(r + 1) * self.k - 1]
        }
    }

    /// Whether `(d, i)` would enter list `r`: it is short, or the
    /// candidate is less than the worst kept one.
    #[inline]
    fn admits(&self, r: usize, d: f64, i: u32) -> bool {
        let last = (r + 1) * self.k - 1;
        self.len[r] < self.k || cand_lt((d, i), (self.dist[last], self.ids[last]))
    }

    /// Offers a candidate to list `r`: kept while the list is short, else
    /// in place of the worst kept one if it is less than that one.
    fn push(&mut self, r: usize, d: f64, i: u32) {
        if !self.admits(r, d, i) {
            return;
        }
        let (k, len) = (self.k, self.len[r]);
        let (dist, ids) = (&mut self.dist[r * k..(r + 1) * k], &mut self.ids[r * k..(r + 1) * k]);
        let at = dist[..len]
            .iter()
            .zip(&ids[..len])
            .fold(0, |n, (&x, &j)| n + usize::from((x < d) | ((x == d) & (j < i))));
        let mut slot = len.min(k - 1);
        while slot > at {
            dist[slot] = dist[slot - 1];
            ids[slot] = ids[slot - 1];
            slot -= 1;
        }
        dist[at] = d;
        ids[at] = i;
        self.len[r] = (len + 1).min(k);
    }

    /// Offers a candidate list `r` may keep already — the approximate
    /// search meets a near neighbor again in most trees: [`Lists::push`]
    /// unless it is kept. An offer [`Lists::admits`] refuses cannot
    /// enter, so only admitted offers pay the membership scan; a kept
    /// candidate re-offered (the same index, the same distance bits) is
    /// admitted unless it is the worst kept one, and the scan drops it.
    fn offer(&mut self, r: usize, d: f64, i: u32) {
        if !self.admits(r, d, i) {
            return;
        }
        // No early exit: the scan of a short list runs without a branch
        // per entry.
        let kept = &self.ids[r * self.k..][..self.len[r]];
        if !kept.iter().fold(false, |any, &j| any | (j == i)) {
            self.push(r, d, i);
        }
    }

    /// The first `rows` lists, and the rest.
    fn split_at(self, rows: usize) -> (Lists<'a>, Lists<'a>) {
        let k = self.k;
        let (d0, d1) = self.dist.split_at_mut(rows * k);
        let (i0, i1) = self.ids.split_at_mut(rows * k);
        let (l0, l1) = self.len.split_at_mut(rows);
        (Lists { k, dist: d0, ids: i0, len: l0 }, Lists { k, dist: d1, ids: i1, len: l1 })
    }
}

/// The storage of `rows` [`Lists`], all empty.
struct ListStore {
    dist: Vec<f64>,
    ids: Vec<u32>,
    len: Vec<usize>,
}

impl ListStore {
    fn new(k: usize, rows: usize) -> Self {
        ListStore { dist: vec![0.0; rows * k], ids: vec![0; rows * k], len: vec![0; rows] }
    }

    fn lists(&mut self, k: usize) -> Lists<'_> {
        Lists { k, dist: &mut self.dist, ids: &mut self.ids, len: &mut self.len }
    }

    /// Row `r`'s kept candidates, nearest first.
    fn entries(&self, k: usize, r: usize) -> (&[f64], &[u32]) {
        let len = self.len[r];
        (&self.dist[r * k..][..len], &self.ids[r * k..][..len])
    }

    /// Refills every row from `src`: row `r` becomes `src`'s row
    /// `from[order[r]]` (in parallel over chunks of rows).
    fn gather(&mut self, k: usize, src: &ListStore, from: &[usize], order: &[u32]) {
        const CHUNK: usize = 256;
        let rows = self.dist.par_chunks_mut(CHUNK * k).zip(self.ids.par_chunks_mut(CHUNK * k));
        rows.zip(self.len.par_chunks_mut(CHUNK)).enumerate().for_each(|(c, ((dist, ids), len))| {
            for (j, len) in len.iter_mut().enumerate() {
                let s = from[order[c * CHUNK + j] as usize];
                *len = src.len[s];
                dist[j * k..(j + 1) * k].copy_from_slice(&src.dist[s * k..(s + 1) * k]);
                ids[j * k..(j + 1) * k].copy_from_slice(&src.ids[s * k..(s + 1) * k]);
            }
        });
    }
}

/// Computes exact k-nearest neighbors (excluding the point itself) for all
/// points in `tree`: leaf-blocked all-nearest-neighbors, parallel over
/// query leaves, one filter call per surviving leaf×leaf pair. Returns
/// exactly [`knn_brute_force`]'s lists. A set of fewer than two points has
/// no neighbours to find: the lists come back empty (`k() == 0`), whatever
/// `k` was asked for.
///
/// # Panics
/// Panics if `k >= n` or `k == 0`, on two points or more.
pub fn knn_all(tree: &BallTree, k: usize) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    if n < 2 {
        return NeighborLists { k: 0, idx: Vec::new(), dist: Vec::new() };
    }
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");
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
/// equal-distance candidate with a smaller index still enters a list.
fn ball_gap_sq(d: usize, center_dist: f64, radii: f64) -> f64 {
    let margin = (d as f64 + 8.0) * f64::EPSILON * (center_dist + radii);
    let gap = (center_dist - radii - margin).max(0.0);
    gap * gap
}

/// Moves every query's filter threshold to its list's current k-th best
/// and returns `τ`, the largest of them — the leaf's pruning radius.
fn tighten(block: &mut QueryBlock, lists: &Lists<'_>) -> f64 {
    let mut tau = 0.0f64;
    for r in 0..lists.len.len() {
        block.set_worst(r, lists.worst(r));
        tau = tau.max(lists.worst(r));
    }
    tau
}

/// All-nearest-neighbors for the queries of one leaf: the self tile seeds
/// the lists (and with them `τ = max_i worst_i`), then a closer-child-first
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

    // The leaf's lists are its rows of the output, kept sorted as they
    // fill; every one ends full (k < n, and every point is met or pruned
    // as unable to enter).
    let mut len = vec![0; m];
    let mut best = Lists { k, dist: drow, ids: irow, len: &mut len };
    let mut block = QueryBlock::new(panel(&qr), &norms[qr.clone()], max_norm);

    let mut tile = workspace::take(m * m);
    let seed = MatMut::from_parts(&mut tile, m, m, m);
    dist_tiles::dist_tile_ranges(pts, norms, qr.clone(), qr.clone(), seed);
    // Room for every pair of the leaf, or of it and a candidate leaf of up
    // to the leaf size — halving can leave leaves of about that size beside
    // leaves of about half of it: a pooled buffer that grew would be
    // refiled into a larger class than the next leaf asks for.
    let mut pairs = workspace::take_idx(2 * m * tree.leaf_size());
    dist_tiles::seed_hits(&tile, m, k, |i| block.slack(i), |i, j| pairs.extend([i, j]));
    let q = panel(&qr);
    seed_lists(&mut best, &pairs, &rescore(q, q, d, &pairs), |j| (qr.start + j) as u32);
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
            pairs.clear();
            block.filter(panel(&cr), &norms[cr.clone()], |i, j| pairs.extend([i, j]));
            for (&s, ij) in rescore(q, panel(&cr), d, &pairs).iter().zip(pairs.chunks_exact(2)) {
                best.push(ij[0], s, (cr.start + ij[1]) as u32);
            }
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
    debug_assert!(best.len.iter().all(|&l| l == k));
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
/// The trees are built together, level by level ([`projection_buckets`]):
/// each split keys its points with one `dot` with its direction. They are
/// then taken in turn: the buckets of one tree run in parallel, each
/// scoring its members against each other (see [`crate::dist_tiles`])
/// into per-point lists that persist from tree to tree, so nothing of size
/// `n_trees · n · bucket` is ever held. Each list is the
/// `(dist, idx)`-smallest `k` of the union of the query's buckets —
/// exactly [`knn_approximate_brute_force`]'s.
///
/// # Panics
/// Panics if `k >= n`, `k == 0`, or `n_trees == 0`.
pub fn knn_approximate(tree: &BallTree, k: usize, n_trees: usize, seed: u64) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    let (_, members) = projection_buckets(pts, k, n_trees, seed);
    let (norms, max_norm) = sq_norms_and_max(pts);
    let norms: &[f64] = &norms;
    // The lists live in one store whose rows follow the current tree's
    // buckets, bucket after bucket: a bucket job borrows one contiguous
    // run of rows, the jobs of a tree run in parallel, and between trees
    // the rows are gathered into the next tree's order. `row[p]` is point
    // p's row.
    let (mut cur, mut next) = (ListStore::new(k, n), ListStore::new(k, n));
    let mut row = vec![0usize; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for (t, tree_buckets) in members.iter().enumerate() {
        order.clear();
        order.extend(tree_buckets.iter().flatten());
        if t > 0 {
            next.gather(k, &cur, &row, &order);
            std::mem::swap(&mut cur, &mut next);
        }
        for (r, &p) in order.iter().enumerate() {
            row[p as usize] = r;
        }
        let mut rest = cur.lists(k);
        let mut jobs = Vec::with_capacity(tree_buckets.len());
        for mem in tree_buckets {
            let (mine, tail) = rest.split_at(mem.len());
            jobs.push((mem, mine));
            rest = tail;
        }
        jobs.into_par_iter().for_each(|(mem, mut lists)| {
            if t == 0 {
                seed_bucket(pts, norms, max_norm, mem, k, &mut lists);
            } else {
                filter_bucket(pts, norms, max_norm, mem, &mut lists);
            }
        });
    }

    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];
    let cur = &cur;
    idx.par_chunks_mut(k).zip(dist.par_chunks_mut(k)).enumerate().for_each(|(q, (irow, drow))| {
        let (sd, si) = cur.entries(k, row[q]);
        finalize_approx_row(pts, q, sd, si, k, irow, drow)
    });
    NeighborLists { k, idx, dist }
}

/// The reference [`knn_approximate`] is held to: the same projection
/// trees, and for each query the `(dist, idx)`-smallest `k` of the union of
/// its buckets, every candidate scored with [`PointSet::sq_dist`] and the
/// union sorted whole (serial, `O(n · n_trees · bucket · d)`). A row short
/// of `k` is padded as [`knn_approximate`] pads it.
///
/// # Panics
/// Panics if `k >= n`, `k == 0`, or `n_trees == 0`.
pub fn knn_approximate_brute_force(
    tree: &BallTree,
    k: usize,
    n_trees: usize,
    seed: u64,
) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    let (buckets, members) = projection_buckets(pts, k, n_trees, seed);
    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];
    for (q, (irow, drow)) in idx.chunks_mut(k).zip(dist.chunks_mut(k)).enumerate() {
        let mut union: Vec<u32> =
            (0..n_trees).flat_map(|t| &members[t][buckets[t][q] as usize]).copied().collect();
        union.sort_unstable();
        union.dedup();
        let mut scored: Vec<(f64, u32)> = union
            .into_iter()
            .filter(|&c| c as usize != q)
            .map(|c| (pts.sq_dist(q, c as usize), c))
            .collect();
        scored.sort_by(cand_cmp);
        scored.truncate(k);
        let (sd, si): (Vec<f64>, Vec<u32>) = scored.into_iter().unzip();
        finalize_approx_row(pts, q, &sd, &si, k, irow, drow);
    }
    NeighborLists { k, idx, dist }
}

/// The projection trees of both approximate searches: per tree, the bucket
/// id of every point and the members of every bucket (ascending).
pub type Buckets = (Vec<Vec<u32>>, Vec<Vec<Vec<u32>>>);

/// The `n_trees` randomized projection trees [`knn_approximate`] (and its
/// reference) search for `k` neighbours of the points `pts` with `seed`:
/// per tree, the bucket id of every point and the members of every bucket
/// (ascending). Buckets hold at most `max(4k, 32)` points; the trees are
/// built together, level by level, each level's keys in parallel over the
/// points and its selects in parallel over the trees.
///
/// # Panics
/// Panics if `k >= n`, `k == 0`, or `n_trees == 0`.
pub fn projection_buckets(pts: &PointSet, k: usize, n_trees: usize, seed: u64) -> Buckets {
    let n = pts.len();
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");
    assert!(n_trees > 0, "need at least one projection tree");
    let bucket = (4 * k).max(32).min(n);
    let buckets = projection_trees(pts, n_trees, seed, bucket);
    let members = buckets
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
    (buckets, members)
}

/// Exact distances of flagged pairs, batched: `pairs` holds two entries
/// per pair, a column of the `d`-row panel `q` and one of `c`, and entry
/// `p` of the result is their [`sq_dist`], bit for bit
/// ([`sq_dist_sums`], eight pairs a pass).
fn rescore(q: &[f64], c: &[f64], d: usize, pairs: &[usize]) -> workspace::WsVec {
    let mut dist = workspace::take(pairs.len() / 2);
    sq_dist_sums(|p| &q[pairs[2 * p] * d..][..d], |p| &c[pairs[2 * p + 1] * d..][..d], &mut dist);
    dist
}

/// A bucket of the first projection tree, `lists[i]` becoming the list of
/// `mem[i]`: the bucket is gathered once, its symmetric tile picks
/// the ~k other members each one can take, and each such pair is scored
/// once from the gathered panel and offered to both lists.
fn seed_bucket(
    pts: &PointSet,
    norms: &[f64],
    max_norm: f64,
    mem: &[u32],
    k: usize,
    lists: &mut Lists<'_>,
) {
    let (len, d) = (mem.len(), pts.dim());
    let mut xc = workspace::take(d * len);
    let mut rn = workspace::take(len);
    dist_tiles::gather_panel(pts, norms, mem, &mut xc, &mut rn);
    let mut tile = workspace::take(len * len);
    dist_tiles::panel_tile_sym(&xc, &rn, MatMut::from_parts(&mut tile, len, len, len));
    let mut pairs = workspace::take_idx(len * len);
    let slack = |i: usize| dist_tiles::filter_slack(d, rn[i], max_norm);
    dist_tiles::seed_hits(&tile, len, k, slack, |i, j| pairs.extend([i, j]));
    seed_lists(lists, &pairs, &rescore(&xc, &xc, d, &pairs), |j| mem[j]);
}

/// Fills the empty lists `lists` of a block's members from its seed
/// pairs: pair `p` (`pairs[2p]`, `pairs[2p + 1]`, members of the block) at
/// distance `dist[p]` is offered to both, `id(j)` naming member `j`. Each
/// member's offers are gathered and sorted once, and its list takes the
/// first `k` — what offering them one at a time would keep. An offer
/// sorts as the integer `bits(distance) · 2³² + index`, which orders as
/// [`cand_lt`] does: a distance is never negative, `−0` or NaN, and the
/// bits of such floats ascend with their values.
fn seed_lists(lists: &mut Lists<'_>, pairs: &[usize], dist: &[f64], id: impl Fn(usize) -> u32) {
    let (m, k) = (lists.len.len(), lists.k);
    // Offsets of each member's offers, then the offers themselves.
    let mut start = vec![0usize; m + 1];
    for &i in pairs {
        start[i + 1] += 1;
    }
    for i in 0..m {
        start[i + 1] += start[i];
    }
    let mut offers = vec![0u128; pairs.len()];
    let mut fill = start.clone();
    for (&s, ij) in dist.iter().zip(pairs.chunks_exact(2)) {
        debug_assert!(s.is_sign_positive() && !s.is_nan());
        for (a, b) in [(ij[0], ij[1]), (ij[1], ij[0])] {
            offers[fill[a]] = u128::from(s.to_bits()) << 32 | u128::from(id(b));
            fill[a] += 1;
        }
    }
    for (r, w) in start.windows(2).enumerate() {
        let mine = &mut offers[w[0]..w[1]];
        mine.sort_unstable();
        debug_assert_eq!(lists.len[r], 0);
        let kept = &mine[..mine.len().min(k)];
        for (e, &key) in kept.iter().enumerate() {
            lists.dist[r * k + e] = f64::from_bits((key >> 32) as u64);
            lists.ids[r * k + e] = key as u32;
        }
        lists.len[r] = kept.len();
    }
}

/// A bucket of a later tree: one two-sided filter pass of its members
/// against each other over the upper block triangle, under the thresholds
/// the earlier trees left. A flagged pair is scored once and offered to
/// both lists, each of which may keep it already.
fn filter_bucket(pts: &PointSet, norms: &[f64], max_norm: f64, mem: &[u32], lists: &mut Lists<'_>) {
    let d = pts.dim();
    let mut xc = workspace::take(d * mem.len());
    let mut rn = workspace::take(mem.len());
    dist_tiles::gather_panel(pts, norms, mem, &mut xc, &mut rn);
    let mut block = QueryBlock::new(&xc, &rn, max_norm);
    tighten(&mut block, lists);
    // Room for every pair of the bucket, so the pooled buffer never grows.
    let mut pairs = workspace::take_idx(mem.len() * mem.len());
    block.filter_self(&xc, &rn, |i, j| pairs.extend([i, j]));
    for (&s, ij) in rescore(&xc, &xc, d, &pairs).iter().zip(pairs.chunks_exact(2)) {
        lists.offer(ij[0], s, mem[ij[1]]);
        lists.offer(ij[1], s, mem[ij[0]]);
    }
}

/// Shared tail of both approximate searches: writes the `(dist,
/// idx)`-sorted selection (`sd`, `si`), then pads a row short of `k` with
/// the smallest indices not already present (sorted among themselves, so
/// the row stays duplicate-free).
fn finalize_approx_row(
    pts: &PointSet,
    q: usize,
    sd: &[f64],
    si: &[u32],
    k: usize,
    irow: &mut [u32],
    drow: &mut [f64],
) {
    let n = sd.len();
    irow[..n].copy_from_slice(si);
    drow[..n].copy_from_slice(sd);
    if n < k {
        let mut pad: Vec<(f64, u32)> = Vec::with_capacity(k - n);
        let mut c = 0u32;
        while n + pad.len() < k {
            if c as usize != q && !si.contains(&c) {
                pad.push((pts.sq_dist(q, c as usize), c));
            }
            c += 1;
        }
        pad.sort_by(cand_cmp);
        for (j, &(d, i)) in pad.iter().enumerate() {
            irow[n + j] = i;
            drow[n + j] = d;
        }
    }
}

/// One node of the projection trees' common shape: its position range and
/// either its split's rank or its bucket id, both counted in depth-first
/// order.
#[derive(Clone, Copy)]
struct ProjNode {
    lo: usize,
    hi: usize,
    /// A split: its rank, the row of a tree's directions it projects on.
    /// A bucket: its id.
    tag: u32,
    split: bool,
}

/// One projection tree under construction: the position → point order
/// its splits permute, each point's node in the current level (`u32::MAX`
/// once its bucket is known), and the bucket ids given so far.
struct ProjTree {
    idx: Vec<usize>,
    node: Vec<u32>,
    assignment: Vec<u32>,
}

/// Builds the randomized projection trees `0..n_trees` and returns each
/// one's bucket id per point.
///
/// A tree's shape depends on `n` and `bucket` only (every split halves its
/// range at `lo + (hi − lo)/2`, down to ranges of at most `bucket`), so all
/// trees share it: it is walked once, without the points, depth first off
/// a stack as each tree's search always was, counting splits and buckets
/// in that order — and since a tree's RNG stream only ever drew `d`
/// direction coordinates per split, in that same order, split `r` of tree
/// `t` projects on draws `r·d .. (r + 1)·d` of its stream. Then the trees
/// grow level by level, all together: one pass over the points in storage
/// order (in parallel over chunks of points) keys every point for every
/// tree whose node splits it at this level — one `dot` with that node's
/// direction, the point read once for all trees rather than once per tree
/// from wherever the splits above scattered it — and each tree (in
/// parallel) takes its splits' medians by those keys with the same
/// `select_nth_unstable_by` on the same positions as its depth-first build
/// did, so every bucket comes out identical.
fn projection_trees(pts: &PointSet, n_trees: usize, seed: u64, bucket: usize) -> Vec<Vec<u32>> {
    let n = pts.len();
    let d = pts.dim();
    let mut levels: Vec<Vec<ProjNode>> = Vec::new();
    let (mut splits, mut buckets) = (0u32, 0u32);
    let mut stack: Vec<(usize, usize, usize)> = vec![(0, n, 0)];
    while let Some((lo, hi, level)) = stack.pop() {
        if levels.len() == level {
            levels.push(Vec::new());
        }
        let split = hi - lo > bucket;
        let tag = if split { splits } else { buckets };
        levels[level].push(ProjNode { lo, hi, tag, split });
        if split {
            splits += 1;
            let mid = lo + (hi - lo) / 2;
            stack.push((lo, mid, level + 1));
            stack.push((mid, hi, level + 1));
        } else {
            buckets += 1;
        }
    }
    let dirs: Vec<Vec<f64>> = (0..n_trees)
        .map(|t| {
            // Deterministic per-tree RNG (splitmix-style stream).
            let mut state = seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
            (0..splits as usize * d)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                })
                .collect()
        })
        .collect();

    let mut trees: Vec<ProjTree> = (0..n_trees)
        .map(|_| ProjTree { idx: (0..n).collect(), node: vec![0; n], assignment: vec![0; n] })
        .collect();
    // Point-major: `keys[i·n_trees + t]` is point i's key in tree t.
    let mut keys = workspace::take(n * n_trees);
    const CHUNK: usize = 256;
    for nodes in &mut levels {
        nodes.sort_unstable_by_key(|nd| nd.lo);
        let nodes: &[ProjNode] = nodes;
        let shared: &[ProjTree] = &trees;
        // The last level holds buckets only: nothing to key.
        if nodes.iter().any(|nd| nd.split) {
            keys.par_chunks_mut(CHUNK * n_trees).enumerate().for_each(|(c, chunk)| {
                for (r, row) in chunk.chunks_exact_mut(n_trees).enumerate() {
                    let i = c * CHUNK + r;
                    for ((key, tree), dir) in row.iter_mut().zip(shared).zip(&dirs) {
                        if let Some(nd) = nodes.get(tree.node[i] as usize).filter(|nd| nd.split) {
                            let dir = &dir[nd.tag as usize * d..][..d];
                            *key = kfds_la::blas1::dot(pts.point(i), dir);
                        }
                    }
                }
            });
        }
        let keys: &[f64] = &keys;
        trees.par_chunks_mut(1).enumerate().for_each(|(t, tree)| {
            let tree = &mut tree[0];
            // This tree's keys, contiguous: the selects read them at random.
            let mut mine = workspace::take(n);
            for (m, row) in mine.iter_mut().zip(keys.chunks_exact(n_trees)) {
                *m = row[t];
            }
            let key = |i: usize| mine[i];
            let mut child = 0u32;
            for nd in nodes {
                let (lo, hi) = (nd.lo, nd.hi);
                if !nd.split {
                    for &i in &tree.idx[lo..hi] {
                        tree.assignment[i] = nd.tag;
                        tree.node[i] = u32::MAX;
                    }
                    continue;
                }
                let mid = lo + (hi - lo) / 2;
                tree.idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                    key(a).partial_cmp(&key(b)).expect("NaN projection")
                });
                for (half, ids) in [&tree.idx[lo..mid], &tree.idx[mid..hi]].into_iter().enumerate()
                {
                    for &i in ids {
                        tree.node[i] = child + half as u32;
                    }
                }
                child += 2;
            }
        });
    }
    trees.into_iter().map(|tree| tree.assignment).collect()
}

/// Fraction of exact k-nearest neighbors recovered by `approx` (averaged
/// over points) — the recall metric for [`knn_approximate`]. Empty lists
/// (`k() == 0`: a set of fewer than two points) miss nothing, so their
/// recall is 1.
pub fn knn_recall(exact: &NeighborLists, approx: &NeighborLists) -> f64 {
    assert_eq!(exact.k(), approx.k());
    let k = exact.k();
    if k == 0 {
        return 1.0;
    }
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
/// Rows are `(dist, idx)`-sorted; [`knn_all`] must return exactly these.
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

    /// The one-answer contract of the exact search: it returns brute
    /// force's indices and distance bits.
    fn assert_exact_routes_agree(t: &BallTree, k: usize, what: &str) {
        let n = t.points().len();
        let brute = knn_brute_force(t, k);
        assert_lists_bitwise_eq(&knn_all(t, k), &brute, n, &format!("{what}: vs brute force"));
    }

    /// The same for the approximate search, against its reference.
    fn assert_approx_routes_agree(t: &BallTree, k: usize, n_trees: usize, what: &str) {
        let want = knn_approximate_brute_force(t, k, n_trees, 9);
        assert_lists_bitwise_eq(&knn_approximate(t, k, n_trees, 9), &want, t.points().len(), what);
    }

    #[test]
    fn knn_matches_brute_force() {
        // Uniform 3-d, uniform 8-d, and small leaves in 4-d.
        for (n, d, seed, leaf, k) in [(200, 3, 42, 16, 5), (300, 8, 4, 16, 7), (180, 4, 15, 8, 6)] {
            let t = BallTree::build(&rand_points(n, d, seed), leaf);
            assert_exact_routes_agree(&t, k, &format!("uniform {d}-d"));
        }
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
        let fast = knn_all(&t, 5);
        let slow = knn_brute_force(&t, 5);
        assert_lists_bitwise_eq(&fast, &slow, 160, "coincident");
        for i in 0..160 {
            assert_eq!(fast.distances(i)[..3], [0.0, 0.0, 0.0], "point {i}");
        }
    }

    #[test]
    fn approximate_search_matches_its_reference() {
        let p = rand_points(250, 12, 21);
        let t = BallTree::build(&p, 16);
        assert_approx_routes_agree(&t, 6, 4, "uniform 12-d");
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
        // One point: empty lists, nothing to miss.
        let one = BallTree::build(&p.select(&[0]), 16);
        let lists = knn_all(&one, 8);
        assert_eq!(lists.k(), 0);
        assert_eq!(knn_recall(&lists, &lists), 1.0);
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
        let nn = knn_approximate(&t, 36, 1, 3);
        assert_lists_bitwise_eq(&nn, &knn_approximate_brute_force(&t, 36, 1, 3), 40, "padded");
        for i in 0..40 {
            let mut ids: Vec<u32> = nn.neighbors(i).to_vec();
            assert!(!ids.contains(&(i as u32)), "self-neighbor at {i}");
            ids.sort_unstable();
            let len = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), len, "duplicate neighbors at {i}");
        }
    }

    /// One projection tree as the search first built it: depth first off
    /// a stack, each split drawing its direction when popped and keying its
    /// points with one `dot` each — the order the level-order builder must
    /// reproduce.
    fn projection_tree_buckets_dfs(pts: &PointSet, t: usize, seed: u64, bucket: usize) -> Vec<u32> {
        let n = pts.len();
        let d = pts.dim();
        let mut assignment = vec![0u32; n];
        let mut idx: Vec<usize> = (0..n).collect();
        let mut next_bucket = 0u32;
        let mut state = seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut stack: Vec<(usize, usize)> = vec![(0, n)];
        let mut dir = vec![0.0f64; d];
        let mut keys = vec![0.0; n];
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
            for &i in &idx[lo..hi] {
                keys[i] = kfds_la::blas1::dot(pts.point(i), &dir);
            }
            idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                keys[a].partial_cmp(&keys[b]).expect("NaN projection")
            });
            stack.push((lo, mid));
            stack.push((mid, hi));
        }
        assignment
    }

    #[test]
    fn projection_trees_match_the_depth_first_build() {
        // The normal64d shape (n = 16384, d = 64, buckets of 64, 8 trees);
        // n at the bucket size and one either side; n = 1001; n under the
        // bucket (one bucket); 30 sites x 20 copies, whose keys tie.
        let sites = rand_points(30, 4, 5);
        let copies = sites.select(&(0..600).map(|i| i % 30).collect::<Vec<_>>());
        let cases = [
            (crate::datasets::normal_embedded(16384, 6, 64, 0.1, 3), 64, 8),
            (rand_points(63, 5, 1), 64, 3),
            (rand_points(64, 5, 1), 64, 3),
            (rand_points(65, 5, 1), 64, 3),
            (rand_points(129, 9, 2), 64, 3),
            (rand_points(1001, 12, 4), 32, 4),
            (rand_points(40, 3, 6), 64, 2),
            (copies, 32, 4),
        ];
        for (p, bucket, trees) in &cases {
            let got = projection_trees(p, *trees, 77, *bucket);
            assert_eq!(got.len(), *trees);
            for (t, got) in got.iter().enumerate() {
                let want = projection_tree_buckets_dfs(p, t, 77, *bucket);
                assert_eq!(got, &want, "n={} d={} bucket={bucket} tree {t}", p.len(), p.dim());
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
