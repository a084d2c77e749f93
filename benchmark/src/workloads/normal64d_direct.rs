//! `normal64d_direct` — the paper's NORMAL set (6 intrinsic dimensions
//! embedded in 64), fixed-rank skeletons, approximate kNN, matrix-free
//! (GSKS) full direct factorization, single-RHS solves. The Fig. 4-left
//! regime: fixed-rank GEMM/GSKS work dominates; exact kNN, tolerance-driven
//! CPQR ranks, Krylov and the serve tier do nothing here.

use super::{end_to_end, traced_setups, Times};
use crate::inputs::Rng;
use crate::metrics::Report;
use crate::pipeline::{self, solve_ok, timed, Problem};
use crate::stats::{loglog_slope, median};
use crate::trace::Tracer;
use crate::Ctx;
use kfds_askit::SkelConfig;
use kfds_core::{dist_factorize, factorize, factorize_baseline};
use kfds_core::{PartitionedFactor, SharedFactor, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_tree::datasets::normal_embedded;
use std::sync::Arc;
use std::time::Instant;

const LAMBDA: f64 = 1.0;
const SOLVES_PER_SETUP: usize = 10;

fn problem(ctx: &Ctx, n: usize, stream: &str) -> Problem {
    Problem {
        points: normal_embedded(n, 6, 64, 0.1, ctx.seed_for(stream)),
        kernel: Gaussian::new(4.0),
        leaf: 128,
        skel: SkelConfig::default()
            .with_tol(0.0)
            .with_max_rank(64)
            .with_neighbors(16)
            .with_approx_knn(8)
            .with_max_level(1)
            .with_seed(ctx.seed_for("row-sampling")),
    }
}

fn config() -> SolverConfig {
    SolverConfig::default().with_lambda(LAMBDA)
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let p = problem(ctx, ctx.size(16384, 2048), "points");
    ctx.announce_inputs(&p.points);
    if ctx.tracer.enabled() {
        traced(ctx, r, &p);
    } else {
        end_to_end(ctx, r, 1, |r, rng, times| repetition(&p, r, rng, times));
    }
}

/// One repetition: points → factorization, a factorization at a second λ
/// on the same skeletons, then single-RHS solves, the first of them checked
/// against the treecode matvec.
fn repetition(p: &Problem, r: &mut Report, rng: &mut Rng, times: &mut Times) {
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let st = p.skeletonize(&off);
    let ft = factorize(&st, &p.kernel, config());
    let setup_s = t0.elapsed().as_secs_f64();
    let Ok(ft) = ft else {
        r.op(false);
        return;
    };
    r.op(!ft.stats().is_unstable());
    times.setup_s.push(setup_s);
    times.factor_bytes = ft.stats().stored_bytes;

    let (again, refactor_s) =
        timed(|| factorize(&st, &p.kernel, config().with_lambda(2.0 * LAMBDA)));
    r.op(again.is_ok_and(|f| !f.stats().is_unstable()));
    times.refactor_s.push(refactor_s);

    for i in 0..SOLVES_PER_SETUP {
        let b = rng.vector(p.n());
        let mut x = b.clone();
        let (solved, secs) = timed(|| ft.solve_in_place(&mut x));
        let checked = if i == 0 {
            solve_ok(&st, &p.kernel, LAMBDA, &x, &b, 1e-8)
        } else {
            x.iter().all(|v| v.is_finite())
        };
        r.op(solved.is_ok() && checked);
        times.solve_s.push(secs);
    }
}

fn traced(ctx: &Ctx, r: &mut Report, p: &Problem) {
    let tr = &*ctx.tracer;
    traced_setups(ctx, r, |tr| {
        let setup = tr.open("setup");
        let t0 = Instant::now();
        let st = p.skeletonize(tr);
        let ft = tr.span("core.factorize", || factorize(&st, &p.kernel, config()));
        let secs = t0.elapsed().as_secs_f64();
        drop(setup);
        ft.expect("normal64d_direct: factorization failed in the traced pass");
        secs
    });

    // Layer numbers that need the finished factorization in hand.
    let mut rng = ctx.rng("rhs");
    let st = Arc::new(p.skeletonize(&Tracer::new(false)));
    let (ft, factor_s) = timed(|| factorize(&st, &p.kernel, config()));
    let ft = ft.expect("normal64d_direct: factorization failed in the traced pass");
    r.op(!ft.stats().is_unstable());
    pipeline::report_skeletons(r, &st);
    pipeline::report_factor_stats(r, ft.stats(), factor_s, p.n(), ctx.peak_gflops);
    pipeline::report_direct_solves(r, tr, &ft, &mut rng, ctx.size(100, 20));
    pipeline::report_matvec_and_recall(r, tr, p, &st, &mut rng, ctx.size(8192, 1024));
    drop(ft);

    // Rank-owned subtrees at p = 2, in the two renderings ROADMAP item 5
    // wants merged, on this workload's factor. No gated metric moves yet.
    let kernel = Arc::new(p.kernel);
    let shared = SharedFactor::factorize(Arc::clone(&st), kernel, config())
        .expect("normal64d_direct: shared factorization failed");
    let (parts, partition_s) = timed(|| PartitionedFactor::partition(shared.clone(), 2));
    let parts = parts.expect("normal64d_direct: a complete factor partitions at p = 2");
    r.set("core.partition_s", partition_s, 1);
    let blocks: Vec<f64> = (0..3)
        .map(|_| {
            let mut b = pipeline::rhs_block(&mut rng, p.n(), 16);
            timed(|| tr.span("core.partition_solve16", || parts.solve_mat_in_place(&mut b))).1
        })
        .collect();
    r.set("core.partition_solve16_s", median(&blocks), blocks.len());
    let (dist, dist_s) =
        timed(|| tr.span("core.dist_factorize", || dist_factorize(&st, &p.kernel, config(), 2)));
    let dist = dist.expect("normal64d_direct: distributed factorization failed");
    r.set("core.dist_factor_s", dist_s, 1);
    let dist_solves: Vec<f64> = (0..3)
        .map(|_| {
            let b = rng.vector(p.n());
            let (x, secs) = timed(|| tr.span("core.dist_solve", || dist.solve(&b)));
            r.op(solve_ok(&st, &p.kernel, LAMBDA, &x, &b, 1e-8));
            secs
        })
        .collect();
    r.set("core.dist_solve_s", median(&dist_solves), dist_solves.len());
    drop((dist, parts, shared));

    nsweep(ctx, r);
}

/// The paper's headline as a fitted slope: `factorize` (N log N) against
/// `factorize_baseline` (INV-ASKIT, N log² N) over a doubling sweep of N,
/// best of two at each size.
fn nsweep(ctx: &Ctx, r: &mut Report) {
    let exps = if ctx.quick { 9..=11 } else { 11..=15 };
    let (mut ns, mut fast, mut slow) = (Vec::new(), Vec::new(), Vec::new());
    for e in exps {
        let p = problem(ctx, 1 << e, "nsweep-points");
        let st = p.skeletonize(&Tracer::new(false));
        let best = |f: &dyn Fn()| (0..2).map(|_| timed(f).1).fold(f64::INFINITY, f64::min);
        ns.push(p.n() as f64);
        fast.push(best(&|| drop(factorize(&st, &p.kernel, config()).expect("nsweep factorize"))));
        slow.push(best(&|| {
            drop(factorize_baseline(&st, &p.kernel, config()).expect("nsweep baseline"))
        }));
    }
    r.set("core.factor_nsweep_slope", loglog_slope(&ns, &fast), ns.len());
    r.set("core.baseline_nsweep_slope", loglog_slope(&ns, &slow), ns.len());
    r.set("core.factor_vs_baseline_x", slow[slow.len() - 1] / fast[fast.len() - 1], 2);
}
