//! `lowdim_lambda_sweep` — a low-dimensional NORMAL set (4 intrinsic
//! dimensions in 16), tolerance-driven ranks, exact kNN, kernel blocks
//! assembled once and kept (`StoredGemv`), then a sweep over λ: one λ-only
//! refactorization and one blocked 16-RHS solve per value. The
//! cross-validation / multiclass shape: the same factor and solve layers as
//! `normal64d_direct`, used differently — a factor change that helps the
//! matrix-free path but costs the stored path shows here.

use super::{end_to_end, traced_setups, Times};
use crate::inputs::Rng;
use crate::metrics::Report;
use crate::pipeline::{self, mib, solve_ok, timed, Problem};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use kfds_askit::SkelConfig;
use kfds_core::{assemble_blocks, factorize, factorize_with_blocks, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_tree::datasets::normal_embedded;
use std::sync::Arc;
use std::time::Instant;

/// The sweep: λ = 2⁻² … 2⁵. (At 2⁻³ some seeds leave the 1e-8 residual
/// check: the small-λ instability of the paper's §III, not a workload.)
const LAMBDAS: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// λ values visited after each set-up; the next set-up continues the cycle.
const LAMBDAS_PER_SETUP: usize = 2;
const RHS_PER_SOLVE: usize = 16;

fn problem(ctx: &Ctx) -> Problem {
    Problem {
        points: normal_embedded(ctx.size(8192, 2048), 4, 16, 0.05, ctx.seed_for("points")),
        kernel: Gaussian::new(2.0),
        leaf: 128,
        skel: SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(192)
            .with_neighbors(16)
            .with_max_level(1)
            .with_seed(ctx.seed_for("row-sampling")),
    }
}

fn config(lambda: f64) -> SolverConfig {
    SolverConfig::default().with_lambda(lambda).with_storage(StorageMode::StoredGemv)
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let p = problem(ctx);
    ctx.announce_inputs(&p.points);
    if ctx.tracer.enabled() {
        traced(ctx, r, &p);
    } else {
        let mut cursor = 0;
        end_to_end(ctx, r, RHS_PER_SOLVE, |r, rng, times| {
            repetition(&p, r, rng, times, &mut cursor);
        });
    }
}

/// One repetition: points → assembled blocks, then for the next λ values of
/// the cycle a refactorization over the blocks and a blocked 16-RHS solve
/// whose first column is checked against the treecode matvec.
fn repetition(p: &Problem, r: &mut Report, rng: &mut Rng, times: &mut Times, cursor: &mut usize) {
    let t0 = Instant::now();
    let st = p.skeletonize(&Tracer::new(false));
    let blocks = Arc::new(assemble_blocks(&st, &p.kernel));
    times.setup_s.push(t0.elapsed().as_secs_f64());
    r.op(true);

    for _ in 0..LAMBDAS_PER_SETUP {
        let lambda = LAMBDAS[*cursor % LAMBDAS.len()];
        *cursor += 1;
        let (ft, secs) =
            timed(|| factorize_with_blocks(&st, &p.kernel, Arc::clone(&blocks), config(lambda)));
        let Ok(ft) = ft else {
            r.op(false);
            continue;
        };
        r.op(!ft.stats().is_unstable());
        times.refactor_s.push(secs);
        times.factor_bytes = ft.stats().stored_bytes + blocks.stats().bytes;

        let b = pipeline::rhs_block(rng, p.n(), RHS_PER_SOLVE);
        let mut x = b.clone();
        let (solved, secs) = timed(|| ft.solve_mat_in_place(&mut x));
        let finite = x.as_slice().iter().all(|v| v.is_finite());
        r.op(solved.is_ok()
            && finite
            && solve_ok(&st, &p.kernel, lambda, x.col(0), b.col(0), 1e-8));
        times.solve_s.push(secs);
    }
}

fn traced(ctx: &Ctx, r: &mut Report, p: &Problem) {
    let tr = &*ctx.tracer;
    traced_setups(ctx, r, |tr| {
        let setup = tr.open("setup");
        let t0 = Instant::now();
        let st = p.skeletonize(tr);
        let blocks = tr.span("core.assemble", || assemble_blocks(&st, &p.kernel));
        let secs = t0.elapsed().as_secs_f64();
        drop((setup, blocks));
        secs
    });

    let mut rng = ctx.rng("rhs");
    let st = p.skeletonize(&Tracer::new(false));
    let blocks = Arc::new(assemble_blocks(&st, &p.kernel));
    r.set("core.assemble_mib", mib(blocks.stats().bytes), 1);
    pipeline::report_skeletons(r, &st);

    // The λ-only refactorization against a fresh stored factorization.
    let refactors: Vec<f64> = LAMBDAS[..3]
        .iter()
        .map(|&l| {
            let (ft, secs) = timed(|| {
                tr.span("core.factorize", || {
                    factorize_with_blocks(&st, &p.kernel, Arc::clone(&blocks), config(l))
                })
            });
            r.op(ft.is_ok_and(|f| !f.stats().is_unstable()));
            secs
        })
        .collect();
    let fresh: Vec<f64> = LAMBDAS[..2]
        .iter()
        .map(|&l| {
            timed(|| tr.span("core.factorize_fresh", || drop(factorize(&st, &p.kernel, config(l)))))
                .1
        })
        .collect();
    let refactor_s = median(&refactors);
    r.set("core.factor_s", refactor_s, refactors.len());
    r.set("core.refactor_vs_fresh_x", median(&fresh) / refactor_s, fresh.len());

    let lambda = LAMBDAS[3];
    let ft = factorize_with_blocks(&st, &p.kernel, Arc::clone(&blocks), config(lambda))
        .expect("lowdim_lambda_sweep: refactorization failed in the traced pass");
    pipeline::report_factor_stats(r, ft.stats(), refactor_s, p.n(), ctx.peak_gflops);
    pipeline::report_direct_solves(r, tr, &ft, &mut rng, 20);
    pipeline::report_matvec_and_recall(r, tr, p, &st, &mut rng, ctx.size(8192, 1024));
}
