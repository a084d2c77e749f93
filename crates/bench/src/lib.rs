//! Shared infrastructure for the table/figure reproduction harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§V); `EXPERIMENTS.md` maps experiment ids to
//! binaries and records paper-vs-measured comparisons. Sizes are scaled to
//! a single machine (`--scale` multiplies the default problem sizes).

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_kernels::Gaussian;
use kfds_tree::datasets::{self, DatasetSpec};
use kfds_tree::{BallTree, PointSet};
use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Relative Euclidean error `‖a − b‖ / ‖b‖`.
pub fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den.max(1e-300)).sqrt()
}

/// Deterministic test vector.
pub fn test_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Parses `--scale <f>` style flags from `std::env::args`, with default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` if the flag is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// A labeled dataset stand-in instance for the Table II–V experiments.
pub struct Standin {
    /// Paper dataset name.
    pub name: &'static str,
    /// Points (normalized, as in the paper).
    pub points: PointSet,
    /// Gaussian bandwidth from Table II.
    pub h: f64,
    /// Regularizer from Table II.
    pub lambda: f64,
}

/// Builds the stand-in for a named Table-II dataset at size `n`.
pub fn standin(name: &str, n: usize, seed: u64) -> Standin {
    let spec: &DatasetSpec = datasets::spec_by_name(name).expect("unknown dataset name");
    Standin {
        name: spec.name,
        points: datasets::table2_standin(spec, n, seed),
        h: spec.h,
        lambda: spec.lambda,
    }
}

/// A bandwidth usable for our synthetic stand-ins: the paper's `h` values
/// are tuned to the real datasets; for the normalized synthetic stand-ins
/// a bandwidth proportional to the ambient dimension's typical distance
/// (`√(2d)`) keeps the kernel in the "neither sparse nor low-rank" regime
/// the paper targets.
pub fn scaled_bandwidth(d: usize, factor: f64) -> f64 {
    factor * (2.0 * d as f64).sqrt()
}

/// The skeletonization config the harnesses share: tolerance/rank caps
/// plus the kNN mode. High ambient dimension defeats exact ball-tree kNN
/// pruning (O(N²d)), so those workloads switch to ASKIT's
/// randomized-projection-tree mode.
pub fn harness_skel_config(dim: usize, tol: f64, max_rank: usize, max_level: usize) -> SkelConfig {
    let mut cfg = SkelConfig::default()
        .with_tol(tol)
        .with_max_rank(max_rank)
        .with_neighbors(16)
        .with_max_level(max_level);
    if dim >= 64 {
        cfg = cfg.with_approx_knn(8);
    }
    cfg
}

/// Builds tree + skeletons with common parameters, timed.
pub fn build_skeleton_tree(
    points: &PointSet,
    h: f64,
    m: usize,
    tol: f64,
    max_rank: usize,
    max_level: usize,
) -> (SkeletonTree, Gaussian, f64) {
    let kernel = Gaussian::new(h);
    let cfg = harness_skel_config(points.dim(), tol, max_rank, max_level);
    let (st, secs) = timed(|| {
        let tree = BallTree::build(points, m);
        skeletonize(tree, &kernel, cfg)
    });
    (st, kernel, secs)
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header + separator.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!("|{}|", cols.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(rel_err(&[1.0, 0.0], &[1.0, 0.0]) < 1e-15);
        let s = standin("SUSY", 64, 3);
        assert_eq!(s.points.dim(), 8);
        assert!(scaled_bandwidth(8, 0.5) > 1.0);
    }
}
