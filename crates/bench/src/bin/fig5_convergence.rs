//! **Figure 5** — convergence of the relative residual over time for
//! solving `λI + K̃`: (a) unpreconditioned GMRES on the treecode operator
//! (blue curves) vs (b) the hybrid solver (orange curves), across
//! condition numbers `κ ∈ {1e2, 1e3, 1e5}` set by `λ = c·σ₁(K̃)`,
//! `c ∈ {1e-2, 1e-3, 1e-5}` — a cross-validation-style λ sweep.
//!
//! Output: one residual-vs-time series per (dataset, λ, method), printed
//! as CSV-style rows (plot-ready), plus a summary table.
//!
//! ```sh
//! cargo run --release -p kfds-bench --bin fig5_convergence [-- --scale 2]
//! ```

use kfds_bench::{
    arg_f64, build_skeleton_tree, header, rel_err, row, scaled_bandwidth, standin, test_vec, timed,
};
use kfds_core::{estimate_sigma1, factorize, HybridSolver, SolverConfig};
use kfds_krylov::{gmres, FnOp, GmresOptions};

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let n = (4096.0 * scale) as usize;
    let restriction = 4;
    let cs = [1e-2f64, 1e-3, 1e-5];
    println!("# Figure 5 — GMRES (a) vs hybrid (b) convergence, L = {restriction}, N = {n}");

    let mut summary: Vec<Vec<String>> = Vec::new();
    let mut id = 28; // paper numbering starts at #28
    for name in ["COVTYPE", "SUSY", "MNIST2M"] {
        let s = standin(name, n, 0xf165 + name.len() as u64);
        let h = scaled_bandwidth(s.points.dim(), 0.35);
        let (st, kernel, t_setup) = build_skeleton_tree(&s.points, h, 64, 1e-5, 96, restriction);
        let sigma1 = estimate_sigma1(&st, &kernel, 30);
        let b = test_vec(n, 11);

        for &c in &cs {
            let lambda = c * sigma1;
            let kappa = 1.0 / c; // target condition number
            let cfg = SolverConfig::default().with_lambda(lambda);

            // (a) Unpreconditioned GMRES on the full operator.
            let op = FnOp::new(n, |x: &[f64], y: &mut [f64]| {
                y.copy_from_slice(&kfds_askit::hier_matvec(&st, &kernel, lambda, x));
            });
            let opts = GmresOptions { tol: 1e-8, max_iters: 80, ..Default::default() };
            let (plain, t_plain) = timed(|| gmres(&op, &b, None, &opts));

            // (b) Hybrid: partial factorization + reduced GMRES.
            let (ft_res, t_factor) = timed(|| factorize(&st, &kernel, cfg));
            let (hy_op, hy_iters, hy_res, t_hybrid, unstable) = match &ft_res {
                Ok(ft) => {
                    let hy = HybridSolver::new(ft).expect("hybrid");
                    let (out, th) = timed(|| hy.solve(&b, &opts).expect("solve"));
                    let r = rel_err(&kfds_askit::hier_matvec(&st, &kernel, lambda, &out.x), &b);
                    let op = out.reduced.operator.to_string();
                    (op, out.gmres.iters, r, th, ft.stats().is_unstable())
                }
                Err(_) => ("-".into(), 0, f64::NAN, 0.0, true),
            };

            println!("\n## #{id} {name}: lambda = {lambda:.3e} (kappa ~ {kappa:.0e}), setup offset (a) = {t_setup:.2}s, (b) = {:.2}s", t_setup + t_factor);
            println!("method,iter,seconds,relative_residual");
            for e in plain.trace.iter().step_by(10.max(plain.trace.len() / 12)) {
                println!("gmres,{},{:.3},{:.3e}", e.iter, t_setup + e.seconds, e.residual);
            }
            let r_plain = rel_err(&kfds_askit::hier_matvec(&st, &kernel, lambda, &plain.x), &b);
            println!("gmres,{},{:.3},{:.3e}  # final", plain.iters, t_setup + t_plain, r_plain);
            println!(
                "hybrid,{hy_iters},{:.3},{hy_res:.3e}  # final, {hy_op} reduced operator{}",
                t_setup + t_factor + t_hybrid,
                if unstable { " (instability detected — paper run #30 analogue)" } else { "" }
            );

            summary.push(vec![
                format!("#{id}"),
                name.to_string(),
                format!("{:.0e}", kappa),
                format!("{}/{r_plain:.0e}", plain.iters),
                format!("{hy_iters}/{hy_res:.0e} {hy_op}"),
                format!("{:.1}s vs {:.1}s", t_setup + t_plain, t_setup + t_factor + t_hybrid),
                if unstable { "detected".into() } else { "-".into() },
            ]);
            id += 1;
        }
    }

    println!("\n# summary (iters/residual per method; time includes setup offsets)");
    header(&[
        "exp",
        "dataset",
        "kappa",
        "GMRES (a)",
        "hybrid (b)",
        "total time a vs b",
        "instability",
    ]);
    for r in summary {
        row(&r);
    }
    println!("\n# paper shape: plain GMRES flattens as kappa grows (flat blue lines at");
    println!("# 1e5) while the hybrid keeps descending; hybrid solve-phase is 10-1000x");
    println!("# faster per digit once the factorization is amortized.");
}
