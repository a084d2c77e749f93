//! Point sets: the `d x N` coordinate matrix `X` of the paper.

use kfds_la::blas1::dot;
use std::sync::OnceLock;

/// A set of `n` points in `d` dimensions, stored column-major (`d x n`):
/// point `i` is the contiguous slice `data[i*d .. (i+1)*d]`.
///
/// This is the layout the fused kernel summation wants — a kernel block
/// evaluation streams whole points.
///
/// Two accessors give `‖x_i‖²`, each with its own chain of roundings:
/// [`PointSet::sq_norms`] / [`PointSet::sq_norms_into`] that of
/// [`kfds_la::blas1::dot`] (the distance tiles' GEMM identity), computed
/// on every call; [`PointSet::cached_sq_norms`] one multiply-then-add
/// chain from `0` (the fused kernel summation's source norms), computed
/// at most once per set and kept until the set changes. Equality compares
/// the coordinates only, never whether that cache is filled.
#[derive(Clone, Debug)]
pub struct PointSet {
    dim: usize,
    data: Vec<f64>,
    /// [`PointSet::cached_sq_norms`], filled on first use; every `&mut
    /// self` method empties it.
    norms: OnceLock<Vec<f64>>,
}

impl PartialEq for PointSet {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.data == other.data
    }
}

impl PointSet {
    /// Creates a point set from column-major coordinates.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_col_major(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        PointSet { dim, data, norms: OnceLock::new() }
    }

    /// An empty set with capacity for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0);
        PointSet { dim, data: Vec::with_capacity(dim * n), norms: OnceLock::new() }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` if there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable coordinates of point `i` (empties the norm cache).
    #[inline]
    pub fn point_mut(&mut self, i: usize) -> &mut [f64] {
        self.norms.take();
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Raw column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Appends a point (empties the norm cache).
    ///
    /// # Panics
    /// Panics if `p.len() != dim`.
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim);
        self.norms.take();
        self.data.extend_from_slice(p);
    }

    /// Squared Euclidean distance between points `i` and `j`.
    #[inline]
    pub fn sq_dist(&self, i: usize, j: usize) -> f64 {
        sq_dist(self.point(i), self.point(j))
    }

    /// Squared Euclidean norms of every point (`‖x_i‖²`, [`dot`]'s chain),
    /// used to turn pairwise distances into a GEMM
    /// (`‖x−y‖² = ‖x‖²+‖y‖²−2xᵀy`).
    pub fn sq_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.sq_norms_into(&mut out);
        out
    }

    /// Fills `out[i] = ‖x_i‖²` without allocating — the pooled-buffer
    /// variant of [`PointSet::sq_norms`] used by the blocked distance
    /// tiles (`crate::dist_tiles`).
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn sq_norms_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "sq_norms_into: length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.point(i), self.point(i));
        }
    }

    /// `‖x_i‖²` of every point as one multiply-then-add chain from `0`
    /// over the coordinates in order — bit for bit
    /// `x.iter().fold(0.0, |s, &v| s + v * v)`, not [`dot`]'s chain — the
    /// source norms of the fused kernel summation. Computed on the first
    /// call (one caller computes, concurrent ones wait) and kept until a
    /// `&mut self` method changes the set, so a solve that meets every
    /// point once per tree level chains each norm once.
    pub fn cached_sq_norms(&self) -> &[f64] {
        self.norms.get_or_init(|| {
            let mut out = vec![0.0; self.len()];
            chain_sums(|i| self.point(i), |i| self.point(i), 0.0, |u, v| u * v, &mut out);
            out
        })
    }

    /// A new point set containing `idx`-selected points (with repetition
    /// allowed).
    pub fn select(&self, idx: &[usize]) -> PointSet {
        let mut out = PointSet::with_capacity(self.dim, idx.len());
        for &i in idx {
            out.push(self.point(i));
        }
        out
    }

    /// Reorders points so that new position `k` holds old point `perm[k]`.
    ///
    /// # Panics
    /// Panics if `perm.len() != self.len()`.
    pub fn permute(&self, perm: &[usize]) -> PointSet {
        assert_eq!(perm.len(), self.len(), "permutation length mismatch");
        self.select(perm)
    }

    /// Normalizes every coordinate to zero mean and unit variance in place
    /// (the preprocessing used for all datasets in the paper's Table II).
    /// Coordinates with zero variance are left centered. Empties the norm
    /// cache.
    pub fn normalize(&mut self) {
        self.norms.take();
        let n = self.len();
        if n == 0 {
            return;
        }
        let d = self.dim;
        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(self.point(i)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0; d];
        for i in 0..n {
            for k in 0..d {
                let c = self.data[i * d + k] - mean[k];
                var[k] += c * c;
            }
        }
        let inv_std: Vec<f64> = var
            .iter()
            .map(|&v| {
                let s = (v / n as f64).sqrt();
                if s > 0.0 {
                    1.0 / s
                } else {
                    1.0
                }
            })
            .collect();
        for i in 0..n {
            for k in 0..d {
                self.data[i * d + k] = (self.data[i * d + k] - mean[k]) * inv_std[k];
            }
        }
    }

    /// The coordinate-wise mean of the points in `range`.
    pub fn centroid(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut c = vec![0.0; self.dim];
        let count = range.len().max(1) as f64;
        for i in range {
            for (ck, &v) in c.iter_mut().zip(self.point(i)) {
                *ck += v;
            }
        }
        for ck in &mut c {
            *ck /= count;
        }
        c
    }
}

/// Squared Euclidean distance between two coordinate slices.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let dxy = x - y;
        s += dxy * dxy;
    }
    s
}

/// Pairs [`dot_sums`] and [`sq_dist_sums`] take through their loop
/// together: that many independent chains.
const CHAINS: usize = 8;

/// `out[p] = x(p) · y(p)` summed left to right from `−0.0`, for every
/// `p < out.len()`: bit for bit `x.iter().zip(y).map(|(a, b)| a * b).sum()`
/// (`Iterator::sum` on `f64` starts at `−0.0`; multiply, then add — never
/// fused). Eight pairs go through the coordinate loop together, each
/// its own chain, so their additions overlap.
///
/// # Panics
/// Panics unless every slice has the same length.
pub fn dot_sums<'a>(
    x: impl Fn(usize) -> &'a [f64],
    y: impl Fn(usize) -> &'a [f64],
    out: &mut [f64],
) {
    chain_sums(x, y, -0.0, |u, v| u * v, out);
}

/// `out[p] = ` [`sq_dist`]`(x(p), y(p))` for every `p < out.len()`, bit
/// for bit: `Σ (x_k − y_k)²` left to right from `0.0`, eight pairs
/// through the coordinate loop together, as in [`dot_sums`].
///
/// # Panics
/// Panics unless every slice has the same length.
pub fn sq_dist_sums<'a>(
    x: impl Fn(usize) -> &'a [f64],
    y: impl Fn(usize) -> &'a [f64],
    out: &mut [f64],
) {
    chain_sums(
        x,
        y,
        0.0,
        |u, v| {
            let t = u - v;
            t * t
        },
        out,
    );
}

/// `out[p] = init + term(x_0, y_0) + term(x_1, y_1) + …` left to right,
/// `x = x(p)`, `y = y(p)`. One such sum is a chain of additions, each
/// waiting on the last; here eight pairs go through the coordinate loop
/// together, each still its own chain, so their additions overlap and
/// every result keeps the one-at-a-time loop's bits.
fn chain_sums<'a>(
    x: impl Fn(usize) -> &'a [f64],
    y: impl Fn(usize) -> &'a [f64],
    init: f64,
    term: impl Fn(f64, f64) -> f64,
    out: &mut [f64],
) {
    let Some(d) = (!out.is_empty()).then(|| x(0).len()) else {
        return;
    };
    let full = out.len() - out.len() % CHAINS;
    let mut groups = out.chunks_exact_mut(CHAINS);
    for (g, o) in groups.by_ref().enumerate() {
        let p0 = g * CHAINS;
        let xs: [&[f64]; CHAINS] = std::array::from_fn(|l| x(p0 + l));
        let ys: [&[f64]; CHAINS] = std::array::from_fn(|l| y(p0 + l));
        assert!(xs.iter().chain(&ys).all(|v| v.len() == d), "chain_sums: length mismatch");
        // Cut to `d` again so the compiler sees every index below in bounds.
        let (xs, ys) = (xs.map(|v| &v[..d]), ys.map(|v| &v[..d]));
        let mut s = [init; CHAINS];
        for k in 0..d {
            for l in 0..CHAINS {
                s[l] += term(xs[l][k], ys[l][k]);
            }
        }
        o.copy_from_slice(&s);
    }
    for (p, o) in (full..).zip(groups.into_remainder()) {
        let (a, b) = (x(p), y(p));
        assert!(a.len() == d && b.len() == d, "chain_sums: length mismatch");
        *o = a.iter().zip(b).fold(init, |s, (&u, &v)| s + term(u, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> PointSet {
        // 3 points in 2-D: (0,0), (3,4), (1,1).
        PointSet::from_col_major(2, vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0])
    }

    #[test]
    fn accessors() {
        let p = ps();
        assert_eq!(p.len(), 3);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn distances() {
        let p = ps();
        assert_eq!(p.sq_dist(0, 1), 25.0);
        assert_eq!(p.sq_dist(0, 0), 0.0);
        assert_eq!(p.sq_dist(2, 0), 2.0);
    }

    #[test]
    fn sq_norms_match_self_distance_to_origin() {
        let p = ps();
        assert_eq!(p.sq_norms(), vec![0.0, 25.0, 2.0]);
    }

    #[test]
    fn select_and_permute() {
        let p = ps();
        let s = p.select(&[2, 2, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.point(0), &[1.0, 1.0]);
        assert_eq!(s.point(2), &[0.0, 0.0]);
        let q = p.permute(&[1, 2, 0]);
        assert_eq!(q.point(0), p.point(1));
    }

    #[test]
    fn normalize_zero_mean_unit_var() {
        let mut p = PointSet::from_col_major(1, vec![1.0, 2.0, 3.0, 4.0]);
        p.normalize();
        let mean: f64 = (0..4).map(|i| p.point(i)[0]).sum::<f64>() / 4.0;
        let var: f64 = (0..4).map(|i| p.point(i)[0].powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_constant_coordinate() {
        let mut p = PointSet::from_col_major(2, vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0]);
        p.normalize();
        for i in 0..3 {
            assert_eq!(p.point(i)[0], 0.0);
        }
    }

    /// Points at `shift + [-1, 1)` per coordinate, from a seeded stream.
    fn cloud(n: usize, d: usize, shift: f64, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let data = (0..n * d)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shift + ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        PointSet::from_col_major(d, data)
    }

    #[test]
    fn batched_sums_give_the_one_at_a_time_bits() {
        // d = 1..=70 around every unroll of the loops, a count off the
        // 8-pair groups, at the origin and far from it (where every
        // term of a distance is a cancellation); the pairs repeat points
        // and take a point with itself. `dot_sums` against
        // `Iterator::sum`, `sq_dist_sums` against `sq_dist`.
        for d in 1..=70 {
            for shift in [0.0, 3e7] {
                let p = cloud(23, d, shift, d as u64 * 7 + 1);
                let pairs: Vec<(usize, usize)> =
                    (0..37).map(|q| ((q * 5) % 23, (q * 11 + 3) % 23)).collect();
                let mut out = vec![f64::NAN; pairs.len()];
                sq_dist_sums(|q| p.point(pairs[q].0), |q| p.point(pairs[q].1), &mut out);
                for (q, &(a, b)) in pairs.iter().enumerate() {
                    let want = sq_dist(p.point(a), p.point(b));
                    assert_eq!(out[q].to_bits(), want.to_bits(), "sq_dist_sums d={d} pair {q}");
                }
                dot_sums(|q| p.point(pairs[q].0), |q| p.point(pairs[q].1), &mut out);
                for (q, &(a, b)) in pairs.iter().enumerate() {
                    let want: f64 = p.point(a).iter().zip(p.point(b)).map(|(u, v)| u * v).sum();
                    assert_eq!(out[q].to_bits(), want.to_bits(), "dot_sums d={d} pair {q}");
                }
            }
        }
        // The sum's initial value: an all-(−0.0) sum stays −0.0.
        let z = [-0.0, 0.0, -0.0];
        let mut out = [0.0; 9];
        dot_sums(|_| &z[..2], |_| &z[1..], &mut out);
        let want: f64 = z[..2].iter().zip(&z[1..]).map(|(u, v)| u * v).sum();
        assert!(want.is_sign_negative());
        assert!(out.iter().all(|v| v.to_bits() == want.to_bits()), "{out:?} vs {want}");
    }

    #[test]
    fn cached_norms_are_the_fold_chain() {
        // Far from the origin and at d = 13 (a vector `dot` body and a
        // tail), where `dot`'s chain and the fold's part; the cache must
        // give the fold's bits. `kfds-kernels` tests that every `&mut`
        // method empties it.
        let p = cloud(29, 13, 3e3, 5);
        let fold: Vec<u64> = (0..p.len())
            .map(|i| p.point(i).iter().fold(0.0, |s, &v| s + v * v).to_bits())
            .collect();
        let cached: Vec<u64> = p.cached_sq_norms().iter().map(|x| x.to_bits()).collect();
        assert_eq!(cached, fold);
    }

    #[test]
    fn centroid() {
        let p = ps();
        let c = p.centroid(0..3);
        assert!((c[0] - 4.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 5.0 / 3.0).abs() < 1e-12);
    }
}
