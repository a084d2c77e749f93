//! Cross-validation: the workflow the paper optimizes for.
//!
//! "The factorization has to be done for different values of λ during
//! cross-validation studies" (§I) — the skeletonization is λ-independent,
//! so a λ sweep re-factorizes over *shared* skeletons. This example runs
//! the sweep, reports per-λ cost/stability/accuracy, and then a small
//! `(h, λ)` grid search.
//!
//! ```sh
//! cargo run --release --example cross_validation
//! ```

use kernel_fds::prelude::*;
use kernel_fds::solver::{grid_search_gaussian, lambda_sweep};

fn main() {
    let (pts, labels) = datasets::two_class_annulus(2000, 3, 77);
    let train = pts.select(&(0..1600).collect::<Vec<_>>());
    let valid = pts.select(&(1600..2000).collect::<Vec<_>>());
    let y_train = &labels[..1600];
    let y_valid = &labels[1600..];

    println!("== lambda sweep over shared skeletons ==");
    let kernel = Gaussian::new(0.5);
    let t0 = std::time::Instant::now();
    let tree = BallTree::build(&train, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-6).with_max_rank(128).with_neighbors(12),
    );
    println!("skeletonization (shared across all lambda): {:.2}s", t0.elapsed().as_secs_f64());

    let y_perm = st.tree().permute_vec(y_train);
    let lambdas = [100.0, 1.0, 1e-2, 1e-4, 1e-8];
    let entries = lambda_sweep(
        &st,
        &kernel,
        SolverConfig::default(),
        &lambdas,
        &y_perm,
        Some((&valid, y_valid)),
    )
    .expect("one label per point");
    println!("\n| lambda | factor (s) | train residual | valid acc | stable |");
    println!("|---|---|---|---|---|");
    for e in &entries {
        println!(
            "| {:.0e} | {:.2} | {:.1e} | {} | {} |",
            e.lambda,
            e.factor_seconds,
            e.residual,
            e.accuracy.map(|a| format!("{:.1}%", 100.0 * a)).unwrap_or_default(),
            if e.unstable { "UNSTABLE (§III detector)" } else { "yes" }
        );
    }

    println!("\n== (h, lambda) grid search ==");
    let best = grid_search_gaussian(
        &train,
        y_train,
        &valid,
        y_valid,
        &[0.25, 0.5, 1.0],
        &[1.0, 1e-2, 1e-4],
        64,
        SkelConfig::default().with_tol(1e-6).with_max_rank(128).with_neighbors(12),
    )
    .expect("one label per point");
    match best {
        Some((h, lambda, acc)) => {
            println!(
                "best: h = {h}, lambda = {lambda:.0e}, validation accuracy {:.1}%",
                100.0 * acc
            );
            assert!(acc > 0.9);
        }
        None => println!("no stable configuration found"),
    }
}
