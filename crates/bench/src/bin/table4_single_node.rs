//! **Table IV** — single-node performance with level restriction `L = 3`
//! and fixed ranks (`m = s`): factorization time/GFLOP-rate plus solve
//! time under the three kernel-summation schemes (stored GEMV /
//! re-evaluated GEMM / fused GSKS), and the multi-rank (`p`) columns via
//! the simulated message-passing runtime.
//!
//! Paper: COVTYPE100K, `m = s = 2048`, `L = 3`, Haswell/KNL, `p ∈ {1,4}`.
//! Here: COVTYPE stand-in scaled to 16K points, `m = s = 256`.
//!
//! ```sh
//! cargo run --release -p kfds-bench --bin table4_single_node [-- --scale 2]
//! ```

use kfds_bench::{
    arg_f64, build_skeleton_tree, header, rel_err, row, scaled_bandwidth, standin, test_vec, timed,
};
use kfds_core::{dist_factorize, factorize, HybridSolver, SolverConfig, StorageMode};
use kfds_la::Mat;

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
        (StorageMode::RecomputeGemm, "re-evaluate V with GEMM"),
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
    }

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
    println!("\n# paper shape: stored GEMV is the fastest solve (matches); the paper's GSKS");
    println!("# beats re-evaluated GEMM 4-7x thanks to vectorized exp in the fused AVX512");
    println!("# tile — on this scalar-exp machine the two matrix-free schemes tie at");
    println!("# d = 54 (cf. Table I: the GSKS advantage here concentrates at small d).");
}
