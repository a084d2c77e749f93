//! Ablation benches for the design choices called out in `DESIGN.md`,
//! beyond the paper's own tables:
//!
//! 1. telescoping (eq. 10) vs subtree traversal at fixed N — isolates the
//!    single algorithmic change behind Table III;
//! 2. adaptive vs fixed skeleton ranks — the load-balance trade-off the
//!    paper's future-work section discusses;
//! 3. level-restriction sweep `L = 1..4` — factorization time vs reduced
//!    system size vs hybrid iterations (the memory/time trade-off of
//!    §II-C);
//! 4. storage-mode crossover in `d` — when does the fused summation beat
//!    the stored blocks?
//!
//! ```sh
//! cargo run --release -p kfds-bench --bin ablations [-- --scale 2]
//! ```

use kfds_bench::{
    arg_f64, build_skeleton_tree, header, row, scaled_bandwidth, standin, test_vec, timed,
};
use kfds_core::{factorize, factorize_baseline, HybridSolver, SolverConfig, StorageMode};
use kfds_krylov::GmresOptions;
use kfds_tree::datasets::normal_embedded;

fn main() {
    let scale = arg_f64("--scale", 1.0);
    telescoping(scale);
    adaptive_vs_fixed(scale);
    level_sweep(scale);
    storage_crossover(scale);
}

fn telescoping(scale: f64) {
    let n = (8192.0 * scale) as usize;
    println!("# Ablation 1 — telescoping vs subtree traversal (N = {n}, fixed s)\n");
    header(&["s", "traversal (s)", "telescoped (s)", "speedup", "flops ratio"]);
    let points = normal_embedded(n, 4, 16, 0.05, 31);
    for s in [32usize, 64, 128] {
        let (st, kernel, _) = build_skeleton_tree(&points, 2.0, 128, 0.0, s, 1);
        let cfg = SolverConfig::default().with_lambda(1.0);
        let (slow, t_slow) = timed(|| factorize_baseline(&st, &kernel, cfg).expect("baseline"));
        let (fast, t_fast) = timed(|| factorize(&st, &kernel, cfg).expect("telescoped"));
        row(&[
            s.to_string(),
            format!("{t_slow:.2}"),
            format!("{t_fast:.2}"),
            format!("{:.2}x", t_slow / t_fast),
            format!("{:.2}x", slow.stats().flops / fast.stats().flops),
        ]);
    }
    println!();
}

fn adaptive_vs_fixed(scale: f64) {
    let n = (8192.0 * scale) as usize;
    println!("# Ablation 2 — adaptive ranks (tau) vs fixed ranks (N = {n})\n");
    header(&["rank policy", "total skeleton", "T_f (s)", "memory (MiB)", "approx err"]);
    let points = normal_embedded(n, 4, 16, 0.05, 37);
    for (label, tol, smax) in
        [("fixed s=96", 0.0, 96usize), ("adaptive 1e-3", 1e-3, 96), ("adaptive 1e-6", 1e-6, 96)]
    {
        let (st, kernel, _) = build_skeleton_tree(&points, 2.0, 128, tol, smax, 1);
        let cfg = SolverConfig::default().with_lambda(1.0);
        let (ft, t_f) = timed(|| factorize(&st, &kernel, cfg).expect("factorize"));
        let err = kfds_askit::approx_error_estimate(&st, &kernel, 1);
        row(&[
            label.into(),
            st.total_skeleton_size().to_string(),
            format!("{t_f:.2}"),
            format!("{:.1}", ft.stats().stored_bytes as f64 / (1024.0 * 1024.0)),
            format!("{err:.1e}"),
        ]);
    }
    println!();
}

fn level_sweep(scale: f64) {
    let n = (8192.0 * scale) as usize;
    let s = standin("SUSY", n, 0xab1a7e);
    let h = scaled_bandwidth(s.points.dim(), 0.35);
    println!("# Ablation 3 — level-restriction sweep (SUSY stand-in, N = {n})\n");
    header(&[
        "L",
        "frontier",
        "reduced dim",
        "T_f (s)",
        "T_s (s)",
        "KSP iters",
        "reduced op",
        "reduced MiB",
        "factor MiB",
    ]);
    for restriction in [1usize, 2, 3, 4, 5, 6] {
        let (st, kernel, _) = build_skeleton_tree(&s.points, h, 64, 1e-5, 96, restriction);
        let cfg = SolverConfig::default().with_lambda(s.lambda);
        let (ft, t_f) = timed(|| factorize(&st, &kernel, cfg).expect("factorize"));
        let hy = HybridSolver::new(&ft).expect("hybrid");
        let b = test_vec(n, 3);
        let opts = GmresOptions { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (out, t_s) = timed(|| hy.solve(&b, &opts).expect("solve"));
        row(&[
            restriction.to_string(),
            hy.frontier().len().to_string(),
            hy.reduced_dim().to_string(),
            format!("{t_f:.2}"),
            format!("{t_s:.2}"),
            out.gmres.iters.to_string(),
            out.reduced.operator.to_string(),
            format!("{:.1}", out.reduced.bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", ft.stats().stored_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    println!("\n# the reduced operator is assembled while its 8 r^2 bytes fit inside the");
    println!("# factor's and applied matrix-free beyond: the column shows where that flips.\n");
}

fn storage_crossover(scale: f64) {
    let n = (4096.0 * scale) as usize;
    println!("# Ablation 4 — storage-mode solve time vs dimension (N = {n})\n");
    header(&["d", "stored GEMV (s)", "GSKS (s)", "stored MiB"]);
    for d in [4usize, 16, 64, 128] {
        let points = normal_embedded(n, 4.min(d), d, 0.05, 41);
        let (st, kernel, _) = build_skeleton_tree(&points, (d as f64).sqrt(), 128, 0.0, 64, 1);
        let b = test_vec(n, 7);
        let mut cells = vec![d.to_string()];
        let mut stored_mib = 0.0;
        for mode in [StorageMode::StoredGemv, StorageMode::Gsks] {
            let cfg = SolverConfig::default().with_lambda(1.0).with_storage(mode);
            let ft = factorize(&st, &kernel, cfg).expect("factorize");
            if mode == StorageMode::StoredGemv {
                stored_mib = ft.stats().stored_bytes as f64 / (1024.0 * 1024.0);
            }
            // Time several solves for a stable measurement.
            let (_, t_s) = timed(|| {
                for _ in 0..5 {
                    let mut x = b.clone();
                    ft.solve_in_place(&mut x).expect("solve");
                }
            });
            cells.push(format!("{:.3}", t_s / 5.0));
        }
        cells.push(format!("{stored_mib:.1}"));
        row(&cells);
    }
    println!("\n# shape: stored GEMV is fastest but pays O(sN log N) memory; GSKS tracks it");
    println!("# within a small factor at small d and is matrix-free.");
}
