//! **Table IV** — single-node performance with level restriction `L = 3`
//! and fixed ranks (`m = s`): factorization time/GFLOP-rate plus solve
//! time under the three kernel-summation schemes (stored GEMV /
//! re-evaluated GEMM / fused GSKS), and the multi-rank (`p`) columns via
//! the simulated message-passing runtime.
//!
//! The solver offers the stored and the fused scheme. The re-evaluated
//! GEMM row is derived from the fused one: the `V` products the storage
//! mode selects are timed once through the fused pass and once through the
//! two-pass reference (`sum_reference_multi`), and the difference is added
//! to the fused row's `T_f` and `T_s`.
//!
//! Paper: COVTYPE100K, `m = s = 2048`, `L = 3`, Haswell/KNL, `p ∈ {1,4}`.
//! Here: COVTYPE stand-in scaled to 16K points, `m = s = 256`.
//!
//! ```sh
//! cargo run --release -p kfds-bench --bin table4_single_node [-- --scale 2]
//! ```

use kfds_askit::SkeletonTree;
use kfds_bench::{
    arg_f64, build_skeleton_tree, header, rel_err, row, scaled_bandwidth, standin, test_vec, timed,
};
use kfds_core::{dist_factorize, factorize, HybridSolver, SolverConfig, StorageMode};
use kfds_kernels::{sum_fused_multi, sum_reference_multi, Gaussian};
use kfds_la::{Mat, MatMut, MatRef};
use kfds_tree::PointSet;
use rayon::prelude::*;

/// A multi-RHS kernel summation `W = K(rows, cols) U`.
type Summation = fn(&Gaussian, &PointSet, &[usize], &[usize], MatRef<'_>, MatMut<'_>);

/// One `V` product: the skeleton rows of one child, the other child's
/// points and a stand-in for its right-hand sides.
type Product = (Vec<usize>, Vec<usize>, Mat);

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let n = (16384.0 * scale) as usize;
    let m = 256;
    let restriction = 3;
    let s = standin("COVTYPE", n, 0xc0417);
    let h = scaled_bandwidth(s.points.dim(), 0.35);
    println!("# Table IV — single-node performance, COVTYPE stand-in");
    println!("# N = {n}, d = {}, m = s = {m} (fixed rank), L = {restriction}\n", s.points.dim());

    // Fixed-rank skeletonization (tol = 0 disables adaptive truncation).
    let (st, kernel, t_setup) = build_skeleton_tree(&s.points, h, m, 0.0, m, restriction);
    println!("# setup (tree + kNN + skeletonization): {t_setup:.2}s");
    let b = test_vec(n, 5);

    header(&["config", "T_f (s)", "GF_f", "scheme", "T_s (s)", "residual"]);
    let mut reference: Option<Vec<f64>> = None;
    for (mode, label) in [
        (StorageMode::StoredGemv, "MatVec V with GEMV (stored)"),
        (StorageMode::Gsks, "MatVec V with GSKS (fused)"),
    ] {
        // Level-restricted *direct* factorization, as in the paper's
        // Table IV: D factored per frontier subtree plus a dense LU of
        // the coalesced 2^L s reduced system. The scheme selects how the
        // levels below the frontier apply V; the frontier V is the fused
        // pass in every row.
        let cfg = SolverConfig::default().with_lambda(s.lambda).with_storage(mode);
        let ft = factorize(&st, &kernel, cfg).expect("partial factorization");
        let direct = HybridSolver::new(&ft).expect("frontier");
        let solve = || {
            let mut x = Mat::from_col_major(n, 1, b.clone());
            let report = direct.solve_factored_in_place(&mut x).expect("direct solve");
            (x.into_vec(), report)
        };
        // The warm-up solve assembles and LU-factors the reduced system,
        // then the timed measurement (3 solves).
        let t_f = ft.stats().seconds + solve().1.assembly_seconds;
        let (x, t_s3) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..3 {
                last = solve().0;
            }
            last
        });
        let t_s = t_s3 / 3.0;
        let applied = kfds_askit::hier_matvec(&st, &kernel, s.lambda, &x);
        let res = rel_err(&applied, &b);
        if let Some(r) = &reference {
            assert!(rel_err(&x, r) < 1e-8, "schemes disagree");
        } else {
            reference = Some(x.clone());
        }
        row(&[
            "p=1".into(),
            format!("{t_f:.2}"),
            format!("{:.2}", ft.stats().gflops()),
            label.into(),
            format!("{t_s:.2}"),
            format!("{res:.1e}"),
        ]);
        if mode == StorageMode::Gsks {
            // The factor's products take P̂_r (s_r columns), the solve's
            // one right-hand side.
            let ranks = |c: usize| st.skeleton(c).map_or(0, |sk| sk.rank());
            let extra_f = v_products_delta(&st, &kernel, ranks);
            let extra_s = v_products_delta(&st, &kernel, |_| 1);
            let t_f = t_f + extra_f;
            row(&[
                "p=1".into(),
                format!("{t_f:.2}"),
                format!("{:.2}", ft.stats().flops / (ft.stats().seconds + extra_f) / 1e9),
                "re-evaluate V with GEMM (derived)".into(),
                format!("{:.2}", t_s + extra_s),
                "-".into(),
            ]);
        }
    }
    println!("\n# derived row: the fused row plus (two-pass - fused) seconds of the V");
    println!("# products below the frontier, timed on the same nodes and shapes.");

    // Multi-rank columns (the paper's p > 1 MPI runs): full factorization
    // (L = 1 — the distributed algorithm covers the whole tree) on the
    // simulated runtime.
    println!("\n# distributed ranks (full factorization, no level restriction):");
    let (st1, kernel1, _) = build_skeleton_tree(&s.points, h, m, 0.0, m, 1);
    header(&["p", "T_f (s)", "T_s (s)", "vs p=1"]);
    let cfg = SolverConfig::default().with_lambda(s.lambda);
    let mut ref_x: Option<Vec<f64>> = None;
    for p in [1usize, 2, 4] {
        if st1.tree().nodes_at_level(p.trailing_zeros() as usize).len() != p {
            continue;
        }
        let ds = dist_factorize(&st1, &kernel1, cfg, p).expect("dist");
        let (x, t_s) = timed(|| ds.solve(&b));
        let cmp = match &ref_x {
            Some(r) => format!("{:.1e}", rel_err(&x, r)),
            None => {
                ref_x = Some(x.clone());
                "-".into()
            }
        };
        row(&[p.to_string(), format!("{:.2}", ds.factor_seconds()), format!("{t_s:.2}"), cmp]);
    }
}

/// Seconds the two-pass reference takes over the fused pass for the `V`
/// products the storage mode selects: at every factored internal node
/// `α = (l, r)`, `K_{l̃ r}` times an `|r| x cols(r)` stand-in and
/// `K_{r̃ l}` times an `|l| x cols(l)` one. Levels run deepest first, the
/// nodes of a level on the pool, as the factorization runs them; the best
/// of three passes counts. Panics if the two schemes' outputs disagree.
fn v_products_delta(st: &SkeletonTree, kernel: &Gaussian, cols: impl Fn(usize) -> usize) -> f64 {
    let tree = st.tree();
    let pts = tree.points();
    // The factorization's region: skeletonized nodes, and the root once
    // both its children are.
    let factored = |i: usize| st.is_skeletonized(i) || i == tree.root();
    let both = |&(l, r): &(usize, usize)| st.is_skeletonized(l) && st.is_skeletonized(r);
    // Per level, deepest first.
    let products: Vec<Vec<Product>> = (0..=tree.depth())
        .rev()
        .map(|level| {
            let nodes = tree.nodes_at_level(level).iter().filter(|&&i| factored(i));
            let pairs = nodes.filter_map(|&i| tree.node(i).children).filter(both);
            (pairs.flat_map(|(l, r)| [(l, r), (r, l)]))
                .map(|(a, b)| {
                    let (rows, k) = (tree.node(b).len(), cols(b));
                    let u = Mat::from_col_major(rows, k, test_vec(rows * k, b as u64));
                    let skeleton = st.skeleton(a).expect("factored child").skeleton.clone();
                    (skeleton, tree.node(b).range().collect(), u)
                })
                .collect()
        })
        .collect();
    // One pass: every product, level after level; returns the seconds and
    // the sum of squares of every output, the two schemes' checksum.
    let pass = |sum: Summation| {
        timed(|| {
            let mut sq = 0.0;
            for level in &products {
                let sqs: Vec<f64> = (level.par_iter())
                    .map(|(rows, cols, u)| {
                        let mut w = Mat::zeros(rows.len(), u.ncols());
                        sum(kernel, pts, rows, cols, u.rb(), w.rb_mut());
                        w.as_slice().iter().map(|v| v * v).sum()
                    })
                    .collect();
                sq += sqs.iter().sum::<f64>();
            }
            sq
        })
    };
    let best = |sum: Summation| {
        let runs: Vec<(f64, f64)> = (0..3).map(|_| pass(sum)).collect();
        (runs[0].0, runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min))
    };
    let (fused_sq, fused_s) = best(sum_fused_multi::<Gaussian>);
    let (ref_sq, ref_s) = best(sum_reference_multi::<Gaussian>);
    assert!((ref_sq - fused_sq).abs() <= 1e-10 * fused_sq, "two-pass reference disagrees");
    ref_s - fused_s
}
