//! **Table V** — hybrid vs direct solvers under level restriction `L = 3`
//! with adaptive ranks (`τ = 1e-5`).
//!
//! Paper: SUSY / MRI / MNIST2M; the direct variant LU-factorizes the
//! coalesced `2^L s` reduced system (≈2× the hybrid's factorization time),
//! solves in ~1–2 s at machine-precision residual; the hybrid factorizes
//! only to the frontier, pays GMRES iterations at solve time (~20×
//! slower solves, residual at the Krylov tolerance) but wins on total
//! time and memory — increasingly so as `L` grows. At this scale the
//! `2^L s` system is no larger than the partial factor, so the hybrid
//! assembles it once too (see the "reduced op" column); the paper's gap
//! belongs to the sizes where it runs matrix-free.
//!
//! ```sh
//! cargo run --release -p kfds-bench --bin table5_hybrid [-- --scale 2]
//! ```

use kfds_bench::{
    arg_f64, build_skeleton_tree, header, rel_err, row, scaled_bandwidth, standin, test_vec, timed,
};
use kfds_core::{factorize, HybridSolver, LevelRestrictedDirect, SolverConfig};
use kfds_krylov::GmresOptions;

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let n = (8192.0 * scale) as usize;
    let restriction = 3;
    println!("# Table V — hybrid vs direct with level restriction L = {restriction}");
    println!("# N = {n}, adaptive ranks tau = 1e-5, smax = 128\n");
    header(&[
        "#",
        "dataset",
        "method",
        "ASKIT (s)",
        "T_f (s)",
        "T_s (s)",
        "residual r",
        "KSP iters",
        "reduced op",
        "reduced mem",
    ]);

    let mut id = 19; // paper numbering starts at #19 for this table
    for name in ["SUSY", "MRI", "MNIST2M"] {
        let s = standin(name, n, 0x7ab1e5 + name.len() as u64);
        let h = scaled_bandwidth(s.points.dim(), 0.35);
        let (st, kernel, t_askit) = build_skeleton_tree(&s.points, h, 128, 1e-5, 128, restriction);
        let b = test_vec(n, 9);
        let cfg = SolverConfig::default().with_lambda(s.lambda);

        // Partial factorization shared by both methods.
        let (ft, t_partial) = timed(|| factorize(&st, &kernel, cfg).expect("partial"));

        // Direct: assemble + LU the 2^L s reduced system.
        let (direct, t_assemble) = timed(|| LevelRestrictedDirect::new(&ft).expect("direct"));
        let (x_direct, ts_direct) = timed(|| direct.solve(&b));
        let r_direct = residual(&st, &kernel, cfg.lambda, &x_direct, &b);
        row(&[
            id.to_string(),
            s.name.into(),
            "direct".into(),
            format!("{t_askit:.2}"),
            format!("{:.2}", t_partial + t_assemble),
            format!("{ts_direct:.3}"),
            format!("{r_direct:.0e}"),
            "-".into(),
            "LU".into(),
            mib(direct.reduced_bytes),
        ]);
        id += 1;

        // Hybrid: GMRES on the same reduced system.
        let hy = HybridSolver::new(&ft).expect("hybrid");
        // The paper's hybrid residuals in Table V are ~1e-3/1e-4: the
        // Krylov tolerance is deliberately loose (that is the point of the
        // trade-off). Match that regime.
        let opts = GmresOptions { tol: 1e-6, max_iters: 150, ..Default::default() };
        let (out, ts_hybrid) = timed(|| hy.solve(&b, &opts).expect("hybrid solve"));
        let r_hybrid = residual(&st, &kernel, cfg.lambda, &out.x, &b);
        // Both solvers target the same operator: their solutions agree up
        // to the (loose) Krylov tolerance amplified by the conditioning.
        let agreement = rel_err(&out.x, &x_direct);
        assert!(
            r_hybrid < 1e-4 || out.gmres.iters >= 150,
            "hybrid residual {r_hybrid} with {} iterations",
            out.gmres.iters
        );
        let _ = agreement;
        row(&[
            id.to_string(),
            s.name.into(),
            "hybrid".into(),
            format!("{t_askit:.2}"),
            format!("{t_partial:.2}"),
            format!("{ts_hybrid:.3}"),
            format!("{r_hybrid:.0e}"),
            out.gmres.iters.to_string(),
            format!("{} ({:.2}s)", out.reduced.operator, out.reduced.assembly_seconds),
            mib(hy.reduced_bytes()),
        ]);
        id += 1;
    }
    println!("\n# paper shape: direct pays ~2x at factorization time and wins the per-solve");
    println!("# time; hybrid pays Krylov iterations per solve, over the dense 2^L s");
    println!("# operator while that is no larger than the factor (T_s includes its");
    println!("# one-off assembly) and matrix-free, holding nothing, beyond.");
}

fn mib(bytes: usize) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn residual(
    st: &kfds_askit::SkeletonTree,
    kernel: &kfds_kernels::Gaussian,
    lambda: f64,
    x: &[f64],
    b: &[f64],
) -> f64 {
    let applied = kfds_askit::hier_matvec(st, kernel, lambda, x);
    rel_err(&applied, b)
}
