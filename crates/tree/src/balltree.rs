//! Ball tree construction (Omohundro \[26\]): the geometric partitioner that
//! orders the kernel matrix so off-diagonal blocks are low rank.
//!
//! Starting at the root, each node is split into two children with an equal
//! number of points by a hyperplane: we project the node's points onto the
//! direction spanned by two (approximately) farthest points and split at the
//! median projection. Splitting stops when a node holds at most `m` points
//! (the user-specified leaf size). The tree permutes the points so every
//! node owns a contiguous index range — diagonal blocks of the permuted
//! kernel matrix correspond to tree nodes.
//!
//! A split reads its points in batched passes, one key per point: the
//! squared distance to the centroid (giving the radius and the first
//! sweep's farthest point), the squared distance to that point (the
//! second sweep) and the projection the median is taken on. Each pass runs
//! [`crate::points::sq_dist_sums`] or [`crate::points::dot_sums`] (eight
//! independent chains; the projection summed from `−0.0` as
//! `Iterator::sum` does) — each value bit for bit the scalar loop's — and
//! above 4096 points it is split over the pool, as the two children are.
//! The centroid stays one sum in point order. Permutation, ranges, centers and radii
//! are those of the one-point-at-a-time build, which the tests keep as
//! their reference.

use crate::points::{dot_sums, sq_dist_sums, PointSet};
use kfds_la::workspace;
use rayon::join;
use rayon::prelude::*;

/// A node of the ball tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// First owned position (in permuted order).
    pub begin: usize,
    /// One past the last owned position.
    pub end: usize,
    /// Depth (root = 0).
    pub level: usize,
    /// Indices of the children in [`BallTree::nodes`], if internal.
    pub children: Option<(usize, usize)>,
    /// Index of the parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Index of the sibling node (`None` for the root).
    pub sibling: Option<usize>,
    /// Ball center (centroid of owned points).
    pub center: Vec<f64>,
    /// Ball radius: max distance from the center to an owned point.
    pub radius: f64,
}

impl Node {
    /// Number of points owned by this node.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// `true` if the node owns no points (never happens for `n > 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// `true` if the node has no children.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }

    /// The owned range of (permuted) point positions.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.begin..self.end
    }
}

/// A ball tree over a point set, with the induced permutation.
#[derive(Clone, Debug)]
pub struct BallTree {
    /// Flat node storage; index 0 is the root.
    nodes: Vec<Node>,
    /// `perm[k]` = original index of the point at permuted position `k`.
    perm: Vec<usize>,
    /// `inv_perm[orig]` = permuted position of original point `orig`.
    inv_perm: Vec<usize>,
    /// The points in permuted order.
    points: PointSet,
    /// Node indices grouped by level (`levels[l]` = nodes at depth `l`).
    levels: Vec<Vec<usize>>,
    leaf_size: usize,
}

impl BallTree {
    /// Builds a ball tree with leaf size `m` over `points`.
    ///
    /// The input point set is not modified; the tree stores a permuted copy
    /// (see [`BallTree::points`], [`BallTree::perm`]).
    ///
    /// # Panics
    /// Panics if `points` is empty, `m == 0`, or a coordinate is NaN or
    /// infinite (the message names the first such point's index).
    pub fn build(points: &PointSet, m: usize) -> Self {
        assert!(m > 0, "leaf size must be positive");
        let n = points.len();
        assert!(n > 0, "cannot build a tree over zero points");
        if let Some(i) = (0..n).find(|&i| points.point(i).iter().any(|v| !v.is_finite())) {
            panic!("point {i} has a non-finite coordinate");
        }

        let mut idx: Vec<usize> = (0..n).collect();
        // Recursively split, collecting nodes in a preorder list.
        let builder = Builder { points, leaf_size: m };
        let tree_box = builder.split(&mut idx);
        let mut nodes = Vec::new();
        flatten(*tree_box, 0, None, &mut nodes);

        // Fix up sibling links now that all indices are known.
        for i in 0..nodes.len() {
            if let Some((l, r)) = nodes[i].children {
                nodes[l].sibling = Some(r);
                nodes[r].sibling = Some(l);
            }
        }

        let mut inv_perm = vec![0usize; n];
        for (k, &orig) in idx.iter().enumerate() {
            inv_perm[orig] = k;
        }
        let permuted = points.permute(&idx);

        let max_level = nodes.iter().map(|nd| nd.level).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); max_level + 1];
        for (i, nd) in nodes.iter().enumerate() {
            levels[nd.level].push(i);
        }

        BallTree { nodes, perm: idx, inv_perm, points: permuted, levels, leaf_size: m }
    }

    /// All nodes (index 0 = root).
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by index.
    #[inline]
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// The root node index (always 0).
    #[inline]
    pub fn root(&self) -> usize {
        0
    }

    /// The permuted point set the tree owns.
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// `perm()[k]` is the original index of permuted position `k`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// `inv_perm()[orig]` is the permuted position of original index `orig`.
    #[inline]
    pub fn inv_perm(&self) -> &[usize] {
        &self.inv_perm
    }

    /// Leaf size parameter `m`.
    #[inline]
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Tree depth (level of the deepest node).
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// Node indices at depth `l` (empty slice if `l` exceeds the depth).
    pub fn nodes_at_level(&self, l: usize) -> &[usize] {
        self.levels.get(l).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Indices of all leaves.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_leaf()).collect()
    }

    /// Applies `x` (indexed by original ids) into permuted order.
    pub fn permute_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.perm.len());
        self.perm.iter().map(|&o| x[o]).collect()
    }

    /// Scatters a permuted-order vector back to original ids.
    pub fn unpermute_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.perm.len());
        let mut out = vec![0.0; x.len()];
        for (k, &o) in self.perm.iter().enumerate() {
            out[o] = x[k];
        }
        out
    }
}

struct Builder<'a> {
    points: &'a PointSet,
    leaf_size: usize,
}

/// Intermediate boxed tree used during recursive construction.
struct BoxNode {
    count: usize,
    center: Vec<f64>,
    radius: f64,
    children: Option<(Box<BoxNode>, Box<BoxNode>)>,
}

impl Builder<'_> {
    /// Splits `idx` (reordered in place) and returns the subtree.
    ///
    /// Every per-point quantity of a node — the distance to the centroid
    /// (the radius and the first sweep's farthest point), the distance to
    /// that point (the second sweep) and the projection the median is
    /// taken on — is one batched pass over its points ([`Builder::keys`]),
    /// each value bit for bit the scalar one.
    fn split(&self, idx: &mut [usize]) -> Box<BoxNode> {
        let count = idx.len();
        let center = self.centroid(idx);
        let mut keys = workspace::take(count);
        self.keys(idx, &center, Pass::SqDist, &mut keys);
        let radius = keys.iter().copied().fold(0.0f64, f64::max).sqrt();
        if count <= self.leaf_size {
            return Box::new(BoxNode { count, center, radius, children: None });
        }
        // Splitting direction: approximate diameter by a double sweep —
        // farthest point p1 from the centroid, then farthest point p2 from
        // p1. Project onto p2 - p1 and split at the median.
        let p1 = farthest(idx, &keys);
        self.keys(idx, self.points.point(p1), Pass::SqDist, &mut keys);
        let p2 = farthest(idx, &keys);
        let x1 = self.points.point(p1);
        let x2 = self.points.point(p2);
        let dir: Vec<f64> = x1.iter().zip(x2).map(|(a, b)| b - a).collect();
        self.keys(idx, &dir, Pass::Projection, &mut keys);

        let half = count / 2;
        // Equal split at the median projection (paper: children hold an
        // equal number of points). Degenerate direction (all points equal)
        // still splits by position, keeping the tree balanced.
        select_by_key(idx, half, &keys);
        drop(keys);

        let (left_idx, right_idx) = idx.split_at_mut(half);
        let (l, r) = if count > PARALLEL_SPLIT {
            // Children own disjoint slices; rayon::join keeps construction
            // O(N log N) span-efficient.
            join(|| self.split(left_idx), || self.split(right_idx))
        } else {
            (self.split(left_idx), self.split(right_idx))
        };
        Box::new(BoxNode { count, center, radius, children: Some((l, r)) })
    }

    /// `keys[p]` = the squared distance from point `idx[p]` to `y`, or its
    /// projection on `y` (summed from `−0.0`, as `Iterator::sum` does),
    /// batched ([`sq_dist_sums`], [`dot_sums`]) over
    /// chunks of the points, the chunks on the pool above
    /// [`PARALLEL_SPLIT`] points.
    fn keys(&self, idx: &[usize], y: &[f64], pass: Pass, keys: &mut [f64]) {
        const CHUNK: usize = 1024;
        let run = |ids: &[usize], out: &mut [f64]| match pass {
            Pass::SqDist => sq_dist_sums(|p| self.points.point(ids[p]), |_| y, out),
            Pass::Projection => dot_sums(|p| self.points.point(ids[p]), |_| y, out),
        };
        if idx.len() > PARALLEL_SPLIT {
            keys.par_chunks_mut(CHUNK)
                .zip(idx.par_chunks(CHUNK))
                .for_each(|(out, ids)| run(ids, out));
        } else {
            run(idx, keys);
        }
    }

    /// The coordinate-wise mean of the points `idx`, summed in their
    /// order.
    fn centroid(&self, idx: &[usize]) -> Vec<f64> {
        let mut center = vec![0.0; self.points.dim()];
        for &i in idx {
            for (c, &v) in center.iter_mut().zip(self.points.point(i)) {
                *c += v;
            }
        }
        let inv = 1.0 / idx.len() as f64;
        for c in &mut center {
            *c *= inv;
        }
        center
    }
}

/// What a [`Builder::keys`] pass computes per point.
#[derive(Clone, Copy)]
enum Pass {
    /// The squared distance to the given point.
    SqDist,
    /// The projection on the given direction.
    Projection,
}

/// Node size above which a split's passes, and its two children, run on
/// the pool.
const PARALLEL_SPLIT: usize = 4096;

/// The point of `idx` with the largest key (`keys[p]` is point `idx[p]`'s),
/// the last of equals — the answer `max_by` on the keys gives.
///
/// # Panics
/// Panics if `idx` is empty or a key is NaN.
fn farthest(idx: &[usize], keys: &[f64]) -> usize {
    keys.iter()
        .zip(idx)
        .max_by(|a, b| a.0.partial_cmp(b.0).expect("NaN coordinate"))
        .map(|(_, &i)| i)
        .expect("non-empty node")
}

/// Reorders `idx` so position `nth` holds the point whose key (`keys[p]`
/// is point `idx[p]`'s) ranks there, the smaller keys before it and the
/// larger after — the permutation `select_nth_unstable_by` on the keys
/// gives, comparison for comparison, since it runs the same comparisons on
/// `(key, point)` pairs.
///
/// # Panics
/// Panics if a key is NaN.
fn select_by_key(idx: &mut [usize], nth: usize, keys: &[f64]) {
    let mut keyed: Vec<(f64, usize)> = keys.iter().copied().zip(idx.iter().copied()).collect();
    keyed.select_nth_unstable_by(nth, |a, b| a.0.partial_cmp(&b.0).expect("NaN projection"));
    for (slot, (_, i)) in idx.iter_mut().zip(keyed) {
        *slot = i;
    }
}

/// Flattens the boxed tree into preorder `Vec<Node>` storage, assigning
/// contiguous point ranges.
fn flatten(boxed: BoxNode, begin: usize, parent: Option<usize>, out: &mut Vec<Node>) -> usize {
    let my_index = out.len();
    let level = parent.map(|p| out[p].level + 1).unwrap_or(0);
    out.push(Node {
        begin,
        end: begin + boxed.count,
        level,
        children: None,
        parent,
        sibling: None,
        center: boxed.center,
        radius: boxed.radius,
    });
    if let Some((l, r)) = boxed.children {
        let lcount = l.count;
        let li = flatten(*l, begin, Some(my_index), out);
        let ri = flatten(*r, begin + lcount, Some(my_index), out);
        out[my_index].children = Some((li, ri));
    }
    my_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::sq_dist;

    fn grid_points(n: usize, d: usize) -> PointSet {
        let mut data = Vec::with_capacity(n * d);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n * d {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        PointSet::from_col_major(d, data)
    }

    #[test]
    #[should_panic(expected = "point 37 has a non-finite coordinate")]
    fn nan_coordinate_is_named_by_point() {
        let mut p = grid_points(100, 3);
        p.point_mut(37)[1] = f64::NAN;
        let _ = BallTree::build(&p, 8);
    }

    #[test]
    #[should_panic(expected = "point 99 has a non-finite coordinate")]
    fn infinite_coordinate_is_named_by_point() {
        let mut p = grid_points(100, 3);
        p.point_mut(99)[0] = f64::NEG_INFINITY;
        let _ = BallTree::build(&p, 8);
    }

    #[test]
    fn ranges_are_contiguous_and_partition() {
        let p = grid_points(257, 3);
        let t = BallTree::build(&p, 16);
        let root = t.node(t.root());
        assert_eq!(root.range(), 0..257);
        for (i, nd) in t.nodes().iter().enumerate() {
            if let Some((l, r)) = nd.children {
                assert_eq!(t.node(l).begin, nd.begin, "node {i}");
                assert_eq!(t.node(l).end, t.node(r).begin);
                assert_eq!(t.node(r).end, nd.end);
                // Equal split up to one point.
                assert!((t.node(l).len() as isize - t.node(r).len() as isize).abs() <= 1);
            } else {
                assert!(nd.len() <= 16, "leaf too big: {}", nd.len());
            }
        }
    }

    #[test]
    fn perm_is_bijective_and_points_match() {
        let p = grid_points(100, 4);
        let t = BallTree::build(&p, 8);
        let mut seen = [false; 100];
        for &o in t.perm() {
            assert!(!seen[o]);
            seen[o] = true;
        }
        for k in 0..100 {
            assert_eq!(t.points().point(k), p.point(t.perm()[k]));
            assert_eq!(t.inv_perm()[t.perm()[k]], k);
        }
    }

    #[test]
    fn balls_contain_their_points() {
        let p = grid_points(300, 2);
        let t = BallTree::build(&p, 10);
        for nd in t.nodes() {
            for k in nd.range() {
                let dist = sq_dist(t.points().point(k), &nd.center).sqrt();
                assert!(dist <= nd.radius * (1.0 + 1e-12) + 1e-12);
            }
        }
    }

    #[test]
    fn levels_group_nodes() {
        let p = grid_points(128, 2);
        let t = BallTree::build(&p, 16);
        assert_eq!(t.nodes_at_level(0), &[0]);
        let total: usize = (0..=t.depth()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(total, t.nodes().len());
        // 128 points, leaf 16 => balanced depth log2(128/16) = 3.
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaves().len(), 8);
    }

    #[test]
    fn single_leaf_tree() {
        let p = grid_points(5, 3);
        let t = BallTree::build(&p, 10);
        assert_eq!(t.nodes().len(), 1);
        assert!(t.node(0).is_leaf());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn identical_points_still_split() {
        let data: Vec<f64> = (0..64).flat_map(|_| [1.0, 2.0]).collect();
        let p = PointSet::from_col_major(2, data);
        let t = BallTree::build(&p, 4);
        for nd in t.nodes() {
            if nd.is_leaf() {
                assert!(nd.len() <= 4);
            }
        }
    }

    #[test]
    fn permute_unpermute_roundtrip() {
        let p = grid_points(64, 3);
        let t = BallTree::build(&p, 8);
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let y = t.permute_vec(&x);
        let z = t.unpermute_vec(&y);
        assert_eq!(x, z);
    }

    /// The ball of a node as the builder first computed it, one scalar
    /// `sq_dist` per point: the centroid summed in point order, the radius
    /// the root of the largest distance to it.
    fn ball_of_one_at_a_time(points: &PointSet, idx: &[usize]) -> (Vec<f64>, f64) {
        let mut center = vec![0.0; points.dim()];
        for &i in idx {
            for (c, &v) in center.iter_mut().zip(points.point(i)) {
                *c += v;
            }
        }
        let inv = 1.0 / idx.len() as f64;
        for c in &mut center {
            *c *= inv;
        }
        let radius =
            idx.iter().map(|&i| sq_dist(points.point(i), &center)).fold(0.0f64, f64::max).sqrt();
        (center, radius)
    }

    /// `Builder::split` in comparator form, one `sq_dist` at a time and
    /// the projection evaluated inside every comparison: the oracle for the
    /// permutation, the ranges, centers and radii.
    fn split_by_comparators(b: &Builder<'_>, idx: &mut [usize]) -> Box<BoxNode> {
        let count = idx.len();
        let (center, radius) = ball_of_one_at_a_time(b.points, idx);
        if count <= b.leaf_size {
            return Box::new(BoxNode { count, center, radius, children: None });
        }
        let p1 = idx
            .iter()
            .copied()
            .max_by(|&x, &y| {
                let dx = sq_dist(b.points.point(x), &center);
                let dy = sq_dist(b.points.point(y), &center);
                dx.partial_cmp(&dy).expect("NaN coordinate")
            })
            .expect("non-empty node");
        let p2 = idx
            .iter()
            .copied()
            .max_by(|&x, &y| {
                b.points.sq_dist(x, p1).partial_cmp(&b.points.sq_dist(y, p1)).expect("NaN")
            })
            .expect("non-empty node");
        let dir: Vec<f64> =
            b.points.point(p1).iter().zip(b.points.point(p2)).map(|(u, v)| v - u).collect();
        let proj =
            |i: usize| -> f64 { b.points.point(i).iter().zip(&dir).map(|(x, d)| x * d).sum() };
        let half = count / 2;
        idx.select_nth_unstable_by(half, |&x, &y| proj(x).partial_cmp(&proj(y)).expect("NaN"));
        let (l, r) = idx.split_at_mut(half);
        let children = Some((split_by_comparators(b, l), split_by_comparators(b, r)));
        Box::new(BoxNode { count, center, radius, children })
    }

    #[test]
    fn keyed_split_matches_the_comparator_form() {
        // Ragged n and d in {1, 8, 64}, on four sets: random points, the
        // same with every fifth point a copy of point 0, points of a
        // {-1, 0, 1} lattice, whose distances and projections tie exactly
        // between different points (where the last-maximum rule and the
        // selection's comparisons decide), and tight clusters far from the
        // origin. n < 16 is a single leaf; n = 5000 runs the root's passes
        // over the pool. The same permutation, ranges, centers and radii,
        // to the bit.
        for d in [1usize, 8, 64] {
            for n in [1usize, 2, 3, 17, 100, 257, 1000, 5000] {
                let copies: Vec<usize> = (0..n).map(|i| if i % 5 == 3 { 0 } else { i }).collect();
                let lattice = (0..n * d).map(|k| ((k * 7 + k / 3) % 3) as f64 - 1.0).collect();
                let clustered = crate::datasets::gaussian_mixture(n, d, 6, 1e-3, 5);
                let far = clustered.as_slice().iter().map(|v| v + 1e5).collect();
                let sets = [
                    grid_points(n, d),
                    grid_points(n, d).select(&copies),
                    PointSet::from_col_major(d, lattice),
                    PointSet::from_col_major(d, far),
                ];
                for (s, p) in sets.iter().enumerate() {
                    let t = BallTree::build(p, 16);
                    let b = Builder { points: p, leaf_size: 16 };
                    let mut idx: Vec<usize> = (0..n).collect();
                    let mut nodes = Vec::new();
                    flatten(*split_by_comparators(&b, &mut idx), 0, None, &mut nodes);
                    let what = format!("d={d} n={n} set {s}");
                    assert_eq!(t.perm(), &idx[..], "{what}: permutation");
                    assert_eq!(t.nodes().len(), nodes.len(), "{what}");
                    for (got, want) in t.nodes().iter().zip(&nodes) {
                        assert_eq!(got.range(), want.range(), "{what}: range");
                        assert_eq!(got.children, want.children, "{what}: children");
                        assert_eq!(got.radius.to_bits(), want.radius.to_bits(), "{what}: radius");
                        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got.center), bits(&want.center), "{what}: center");
                    }
                }
            }
        }
    }

    #[test]
    fn sibling_links() {
        let p = grid_points(64, 2);
        let t = BallTree::build(&p, 8);
        for (i, nd) in t.nodes().iter().enumerate() {
            if let Some(s) = nd.sibling {
                assert_eq!(t.node(s).sibling, Some(i));
                assert_eq!(t.node(s).parent, nd.parent);
            } else {
                assert_eq!(i, t.root());
            }
        }
    }
}
