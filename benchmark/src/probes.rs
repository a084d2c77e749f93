//! Layer micro-probes of the traced pass: fixed shapes pushed through one
//! public function of a layer, so that the layer has a rate of its own that
//! does not depend on the workload around it.

use crate::metrics::Report;
use crate::pipeline::timed;
use crate::stats::median;
use kfds_kernels::flops::{gemm_flops, summation_flops};
use kfds_kernels::{eval_block, sum_fused, sum_fused_multi, Gaussian, Kernel};
use kfds_la::{gemm, workspace, ColPivQr, Lu, Mat, Trans};
use kfds_rt::{tags, Transport, World};
use kfds_tree::datasets::normal_embedded;

/// Seconds of each of `reps` calls of `f`.
fn sample(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps).map(|_| timed(&mut f).1).collect()
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn wave(m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |i, j| ((i * 7 + j * 13) as f64 * 0.19).sin())
}

fn gemm_gflops(m: usize, n: usize, k: usize, reps: usize, pick: fn(&[f64]) -> f64) -> f64 {
    let (a, b) = (wave(m, k), wave(k, n));
    let mut c = Mat::zeros(m, n);
    let run = || gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
    gemm_flops(m, n, k) / pick(&sample(reps, run)) / 1e9
}

/// Runs the `kernels`, `la` and `rt` probes. Returns the GEMM peak rate,
/// the denominator of every `*_frac_peak` in the same run.
pub fn common(r: &mut Report, quick: bool) -> f64 {
    let scale = if quick { 4 } else { 1 };

    // la: the roofline denominator is a best-of, everything else a median.
    // Best of 15: on a shared host the best of 5 still read 33 to 80.
    let side = 768 / scale;
    let peak = gemm_gflops(side, side, side, 15, best);
    r.set("la.gemm_peak_gflops", peak, 15);
    r.set("la.gemm_skinny_gflops", gemm_gflops(16384 / scale, 64, 64, 5, median), 5);

    let kernel = Gaussian::new(4.0);
    let pts = normal_embedded(4096 / scale, 6, 64, 0.1, 0x5eed);
    let n = pts.len();
    let all: Vec<usize> = (0..n).collect();

    // A kernel block has the decaying spectrum skeletonization feeds CPQR.
    let block = eval_block(&kernel, &pts, &all[..384 / scale], &all[n - 256 / scale..]);
    let cpqr = sample(5, || drop(ColPivQr::factor_truncated(block.clone(), 1e-5, usize::MAX)));
    r.set("la.cpqr_ms", median(&cpqr) * 1e3, 5);
    let mut dominant = wave(128, 128);
    for i in 0..128 {
        dominant.col_mut(i)[i] += 130.0;
    }
    let lu = sample(20, || drop(Lu::factor(dominant.clone())));
    r.set("la.lu128_us", median(&lu) * 1e6, 20);

    // kernels
    let rows = &all[..128 / scale];
    let eval = sample(5, || workspace::recycle_mat(eval_block(&kernel, &pts, rows, &all)));
    r.set("kernels.eval_block_gelem_s", (rows.len() * n) as f64 / median(&eval) / 1e9, 5);
    let m = 2048 / scale;
    let (rows, cols) = (&all[..m], &all[n - m..]);
    let flops = summation_flops(m, m, pts.dim(), kernel.flops_per_eval());
    let u = wave(m, 16);
    let mut w = Mat::zeros(m, 16);
    let one = sample(5, || sum_fused(&kernel, &pts, rows, cols, u.col(0), w.col_mut(0)));
    r.set("kernels.gsks_gflops", flops / median(&one) / 1e9, 5);
    let multi = sample(5, || sum_fused_multi(&kernel, &pts, rows, cols, u.rb(), w.rb_mut()));
    let flops16 = flops + 15.0 * 2.0 * (m * m) as f64;
    r.set("kernels.gsks16_gflops", flops16 / median(&multi) / 1e9, 5);

    // rt: one block ping-pong between two endpoints of the channel world.
    let mut ends = World::endpoints(2);
    let (far, near) = (ends.pop().expect("two endpoints"), ends.pop().expect("two endpoints"));
    let payload = vec![1.0; 8192 * 16 / scale];
    let tag = tags::TEST.tag(0);
    let trips = 200;
    let rtt = std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..trips {
                let block = far.recv_block(0, tag);
                far.send_block(0, tag, &block);
            }
        });
        sample(trips, || {
            near.send_block(1, tag, &payload);
            drop(near.recv_block(1, tag));
        })
    });
    r.set("rt.block_roundtrip_us", median(&rtt) * 1e6, trips);
    peak
}
