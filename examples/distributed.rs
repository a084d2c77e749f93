//! The distributed factorization and solve (Algorithms II.4/II.5) on the
//! simulated message-passing runtime.
//!
//! Each rank owns a subtree of the ball tree and factorizes it with the
//! serial `O(N log N)` algorithm; the `log₂ p` levels above are handled
//! with the paper's communication pattern — skeleton exchange between the
//! communicator roots, reductions of the partial coupling blocks, and
//! broadcast telescoping of the `P̂` row slices. The distributed solution
//! must agree with the serial one to a relative error below `1e-9`.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```

use kernel_fds::prelude::*;

fn main() {
    let n = 8192;
    let points = datasets::normal_embedded(n, 4, 16, 0.05, 3);
    let kernel = Gaussian::new(1.0);
    let lambda = 1.0;

    println!("== distributed factorization (simulated MPI ranks) ==");
    let tree = BallTree::build(&points, 128);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(128).with_neighbors(16),
    );
    let cfg = SolverConfig::default().with_lambda(lambda);

    // Serial reference.
    let serial = factorize(&st, &kernel, cfg).expect("serial factorization");
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64 / 97.0) - 0.5).collect();
    let bp = st.tree().permute_vec(&b);
    let mut x_serial = bp.clone();
    serial.solve_in_place(&mut x_serial).expect("serial solve");
    println!(
        "serial:   factorization {:.2}s ({} nodes)",
        serial.stats().seconds,
        st.tree().nodes().len()
    );

    for p in [2usize, 4, 8] {
        if st.tree().nodes_at_level(p.trailing_zeros() as usize).len() != p {
            println!("p={p}: tree not deep enough, skipping");
            continue;
        }
        let t0 = std::time::Instant::now();
        let ds = dist_factorize(&st, &kernel, cfg, p).expect("distributed factorization");
        let tf = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let x_dist = ds.solve(&bp);
        let ts = t1.elapsed().as_secs_f64();
        let err = rel_err(&x_dist, &x_serial);
        println!("p={p}: factorization {tf:.2}s, solve {ts:.3}s, vs-serial error {err:.2e}");
        assert!(err < 1e-9, "distributed result must match serial");
    }
    println!("\nall rank counts agree with the serial factorization.");
}

fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den).sqrt()
}
