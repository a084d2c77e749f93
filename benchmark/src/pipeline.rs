//! What the workloads share: the points → skeletons stages with a span
//! around each public call, the answer checks, the accuracy metric, and
//! the layer numbers read off a finished factorization.

use crate::inputs::Rng;
use crate::metrics::Report;
use crate::stats::{median, supported_percentile};
use crate::trace::Tracer;
use kfds_askit::{compute_neighbors, hier_matvec, skeletonize_with_neighbors};
use kfds_askit::{SkelConfig, SkeletonTree};
use kfds_core::{FactorStats, FactorTree};
use kfds_kernels::{eval_block, Gaussian};
use kfds_la::Mat;
use kfds_tree::{BallTree, PointSet};
use std::time::Instant;

/// Inputs of the points → skeletons stages.
pub struct Problem {
    pub points: PointSet,
    pub kernel: Gaussian,
    /// Ball-tree leaf size `m`.
    pub leaf: usize,
    pub skel: SkelConfig,
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

impl Problem {
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Tree → kNN → skeletonization.
    pub fn skeletonize(&self, tr: &Tracer) -> SkeletonTree {
        let tree = tr.span("tree.build", || BallTree::build(&self.points, self.leaf));
        let nn = tr.span("tree.knn", || compute_neighbors(&tree, &self.skel));
        tr.span("askit.skeletonize", || {
            skeletonize_with_neighbors(tree, &self.kernel, self.skel.clone(), &nn)
        })
    }

    /// Recall of this problem's neighbor search against the exact search,
    /// on the first `prefix` points (1 when the search is the exact one).
    pub fn knn_recall(&self, prefix: usize) -> f64 {
        let idx: Vec<usize> = (0..prefix.min(self.n())).collect();
        let tree = BallTree::build(&self.points.select(&idx), self.leaf);
        let found = compute_neighbors(&tree, &self.skel);
        kfds_tree::knn_recall(&kfds_tree::knn_all(&tree, found.k()), &found)
    }
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// `‖a − b‖ / ‖b‖`.
pub fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    norm(&diff) / norm(b).max(f64::MIN_POSITIVE)
}

/// `‖(λI + K̃)x − b‖ / ‖b‖` in the tree's ordering, through the treecode
/// matvec — code the solver does not share.
fn residual(st: &SkeletonTree, kernel: &Gaussian, lambda: f64, x: &[f64], b: &[f64]) -> f64 {
    rel_diff(&hier_matvec(st, kernel, lambda, x), b)
}

/// The check on a solve: every entry finite and the residual within `tol`.
pub fn solve_ok(
    st: &SkeletonTree,
    kernel: &Gaussian,
    lambda: f64,
    x: &[f64],
    b: &[f64],
    tol: f64,
) -> bool {
    let res = residual(st, kernel, lambda, x, b);
    let ok = x.iter().all(|v| v.is_finite()) && res <= tol;
    if !ok {
        eprintln!("check failed: solve at lambda = {lambda} has residual {res:e}, over {tol:e}");
    }
    ok
}

/// ε₂ on sampled rows: `‖(K̃u − Ku)[rows]‖ / ‖(Ku)[rows]‖`. The exact rows
/// come from `eval_block`, the compressed ones from `hier_matvec(λ = 0)`.
pub fn matvec_err(st: &SkeletonTree, kernel: &Gaussian, rng: &mut Rng) -> f64 {
    let pts = st.tree().points();
    let n = pts.len();
    let u = rng.vector(n);
    let rows = rng.sample_rows(n, 512);
    let approx = hier_matvec(st, kernel, 0.0, &u);
    let all: Vec<usize> = (0..n).collect();
    let mut exact = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(64) {
        let block = eval_block(kernel, pts, chunk, &all);
        for i in 0..chunk.len() {
            exact.push((0..n).map(|j| block.col(j)[i] * u[j]).sum::<f64>());
        }
    }
    let approx_rows: Vec<f64> = rows.iter().map(|&r| approx[r]).collect();
    rel_diff(&approx_rows, &exact)
}

/// MiB of `bytes`.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A column-major `n x cols` block of seeded right-hand sides.
pub fn rhs_block(rng: &mut Rng, n: usize, cols: usize) -> Mat {
    Mat::from_col_major(n, cols, rng.vector(n * cols))
}

/// Layer numbers of the skeleton tree.
pub fn report_skeletons(r: &mut Report, st: &SkeletonTree) {
    r.set("askit.skeleton_total", st.total_skeleton_size() as f64, 1);
    let rank_max = st.rank_stats().iter().map(|&(_, _, mx)| mx).max().unwrap_or(0);
    r.set("askit.rank_max", rank_max as f64, 1);
}

/// Treecode matvec time and accuracy on `st`, and the recall of the
/// neighbor search.
pub fn report_matvec_and_recall(
    r: &mut Report,
    tr: &Tracer,
    p: &Problem,
    st: &SkeletonTree,
    rng: &mut Rng,
    recall_prefix: usize,
) {
    r.set("askit.matvec_err", matvec_err(st, &p.kernel, rng), 1);
    let u = rng.vector(p.n());
    let secs: Vec<f64> = (0..3)
        .map(|_| timed(|| tr.span("askit.hier_matvec", || hier_matvec(st, &p.kernel, 0.0, &u))).1)
        .collect();
    r.set("askit.hier_matvec_s", median(&secs), secs.len());
    r.set("tree.knn_recall", p.knn_recall(recall_prefix), 1);
}

/// Layer numbers read off one factorization that took `seconds`.
pub fn report_factor_stats(r: &mut Report, stats: &FactorStats, seconds: f64, n: usize, peak: f64) {
    let gflops = stats.flops / seconds / 1e9;
    r.set("core.factor_flops", stats.flops, 1);
    r.set("core.factor_gflops", gflops, 1);
    r.set("core.factor_frac_peak", gflops / peak, 1);
    let total: f64 = stats.levels.iter().map(|l| l.seconds).sum();
    let leaf = stats.levels.iter().max_by_key(|l| l.level).map_or(0.0, |l| l.seconds);
    r.set("core.factor_leaf_level_share", if total > 0.0 { leaf / total } else { 0.0 }, 1);
    r.set("core.compression_ratio", stats.stored_bytes as f64 / (8.0 * (n * n) as f64), 1);
    r.set("core.min_pivot_ratio", stats.min_pivot_ratio, 1);
    r.set("core.unstable_factorizations", stats.unstable_factorizations as f64, 1);
}

/// Direct-solve layer numbers of a complete factorization: `singles`
/// single-RHS solves and five blocked 16-RHS solves on the same factor. The
/// p90 reads 0 (not reported) below 100 single solves.
pub fn report_direct_solves(
    r: &mut Report,
    tr: &Tracer,
    ft: &FactorTree<'_, Gaussian>,
    rng: &mut Rng,
    singles: usize,
) {
    let n = ft.skeleton_tree().tree().points().len();
    let singles: Vec<f64> = (0..singles)
        .map(|_| {
            let mut x = rng.vector(n);
            timed(|| tr.span("core.solve1", || ft.solve_in_place(&mut x))).1
        })
        .collect();
    let blocks: Vec<f64> = (0..5)
        .map(|_| {
            let mut x = rhs_block(rng, n, 16);
            timed(|| tr.span("core.solve16", || ft.solve_mat_in_place(&mut x))).1
        })
        .collect();
    let (s1, s16) = (median(&singles), median(&blocks));
    r.set("core.solve1_s", s1, singles.len());
    let p90 = supported_percentile(&singles, 90.0).unwrap_or(0.0);
    r.set("core.solve1_p90_ms", p90 * 1e3, singles.len());
    r.set("core.solve1_eff_gbs", ft.stats().stored_bytes as f64 / s1 / 1e9, singles.len());
    r.set("core.solve16_s", s16, blocks.len());
    r.set("core.solve16_amortization_x", 16.0 * s1 / s16, blocks.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_core::{factorize, SolverConfig};
    use kfds_tree::datasets::normal_embedded;

    fn small(tol: f64) -> Problem {
        Problem {
            points: normal_embedded(512, 3, 8, 0.05, 11),
            kernel: Gaussian::new(1.0),
            leaf: 64,
            skel: SkelConfig::default().with_tol(tol).with_max_rank(64).with_neighbors(8),
        }
    }

    #[test]
    fn checker_accepts_the_solve_and_rejects_a_corrupted_answer() {
        let p = small(1e-7);
        let st = p.skeletonize(&Tracer::new(false));
        let ft = factorize(&st, &p.kernel, SolverConfig::default().with_lambda(0.5)).unwrap();
        let b = Rng::new(3).vector(p.n());
        let mut x = b.clone();
        ft.solve_in_place(&mut x).unwrap();
        let mut report = Report::new(true);
        report.op(solve_ok(&st, &p.kernel, 0.5, &x, &b, 1e-8));
        assert!(report.correct());
        x[17] += 1e-3;
        report.op(solve_ok(&st, &p.kernel, 0.5, &x, &b, 1e-8));
        assert!(!report.correct());
        assert_ne!(crate::exit_code(&[report]), 0);
        x[17] = f64::NAN;
        assert!(!solve_ok(&st, &p.kernel, 0.5, &x, &b, 1e-8));
    }

    #[test]
    fn matvec_err_follows_the_tolerance_and_repeats_for_a_seed() {
        let eps2 = |tol: f64, seed: u64| {
            let p = small(tol);
            matvec_err(&p.skeletonize(&Tracer::new(false)), &p.kernel, &mut Rng::new(seed))
        };
        let (loose, tight) = (eps2(1e-1, 5), eps2(1e-7, 5));
        assert!(tight > 0.0 && tight < 0.1 * loose, "loose {loose}, tight {tight}");
        assert_eq!(tight, eps2(1e-7, 5));
    }
}
