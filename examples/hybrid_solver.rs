//! The hybrid direct/iterative solver under level restriction (§II-C).
//!
//! When off-diagonal blocks near the root stop being low rank, the
//! skeletonization is restricted to levels ≥ L and the full direct
//! factorization no longer exists. The hybrid scheme factorizes up to the
//! frontier and solves the reduced `2^L s` system with GMRES — over the
//! dense operator while that is no larger than the factor, matrix-free
//! beyond.
//! This example compares it against plain unpreconditioned GMRES on
//! `λI + K̃` (the blue vs orange curves of Figure 5).
//!
//! ```sh
//! cargo run --release --example hybrid_solver
//! ```

use kernel_fds::prelude::*;

fn main() {
    let n = 4096;
    let points = datasets::normal_embedded(n, 4, 12, 0.05, 23);
    let kernel = Gaussian::new(0.6);
    let restriction = 3usize;

    println!("== hybrid level-restricted solver (L = {restriction}) ==");
    let tree = BallTree::build(&points, 128);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default()
            .with_tol(1e-6)
            .with_max_rank(128)
            .with_neighbors(16)
            .with_max_level(restriction),
    );
    println!(
        "frontier: {} nodes at level {restriction}; fully skeletonized: {}",
        st.frontier().len(),
        st.is_fully_skeletonized()
    );

    // λ chosen from the spectrum for a moderate condition number, as in
    // the Figure 5 experiments (λ = 10^{-3} σ₁).
    let sigma1 = estimate_sigma1(&st, &kernel, 40);
    let lambda = 1e-3 * sigma1;
    println!("sigma1(K~) ~= {sigma1:.3}, lambda = {lambda:.3e} (target kappa ~ 1e3)");

    let t0 = std::time::Instant::now();
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda))
        .expect("partial factorization");
    let tf = t0.elapsed().as_secs_f64();
    let hybrid = HybridSolver::new(&ft).expect("hybrid solver");
    println!("partial factorization: {tf:.2}s; reduced system dim = {}", hybrid.reduced_dim());

    let b: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let bp = st.tree().permute_vec(&b);

    // (a) Unpreconditioned GMRES on λI + K̃ via the treecode matvec.
    let op = kernel_fds::krylov::FnOp::new(n, |x: &[f64], y: &mut [f64]| {
        y.copy_from_slice(&hier_matvec(&st, &kernel, lambda, x));
    });
    let opts = GmresOptions { tol: 1e-8, max_iters: 400, ..Default::default() };
    let t1 = std::time::Instant::now();
    let plain = kernel_fds::krylov::gmres(&op, &bp, None, &opts);
    let t_plain = t1.elapsed().as_secs_f64();

    // (b) Hybrid: direct below the frontier, GMRES on the reduced system.
    let t2 = std::time::Instant::now();
    let hy = hybrid.solve(&bp, &opts).expect("hybrid solve");
    let t_hybrid = t2.elapsed().as_secs_f64();

    let r_plain = residual(&st, &kernel, lambda, &plain.x, &bp);
    let r_hybrid = residual(&st, &kernel, lambda, &hy.x, &bp);
    println!("\n               iterations   time      relative residual");
    println!("plain GMRES    {:>6}      {t_plain:>7.2}s  {r_plain:.3e}", plain.iters);
    println!("hybrid         {:>6}      {t_hybrid:>7.2}s  {r_hybrid:.3e}", hy.gmres.iters);
    println!(
        "\n(hybrid iterates on a {}-dim system instead of {n}: {} operator, {:.1} MiB held, \
         {:.3}s of the solve spent assembling it)",
        hybrid.reduced_dim(),
        hy.reduced.operator,
        hy.reduced.bytes as f64 / (1024.0 * 1024.0),
        hy.reduced.assembly_seconds,
    );
    assert!(r_hybrid < 1e-7, "hybrid should invert the compressed operator");
}

fn residual(st: &SkeletonTree, kernel: &Gaussian, lambda: f64, x: &[f64], b: &[f64]) -> f64 {
    let applied = hier_matvec(st, kernel, lambda, x);
    let num: f64 = applied.iter().zip(b).map(|(u, v)| (u - v) * (u - v)).sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den).sqrt()
}
