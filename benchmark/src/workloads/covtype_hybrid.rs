//! `covtype_hybrid` — the COVTYPE stand-in (54 dimensions, clustered),
//! tolerance-driven ranks, exact dual-tree kNN, level restriction `L = 3`:
//! a partial factorization below the frontier and GMRES on the reduced
//! system above it. The one workload where tree search, rank-adaptive CPQR,
//! Krylov and the matrix-free W/V applies do most of the work while the
//! factorization does little.

use super::{end_to_end, traced_setups, Times};
use crate::inputs::Rng;
use crate::metrics::Report;
use crate::pipeline::{self, solve_ok, timed, Problem};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use kfds_askit::SkelConfig;
use kfds_core::{factorize, HybridSolver, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_tree::datasets::{spec_by_name, table2_standin};
use std::time::Instant;

const LAMBDA: f64 = 0.3;
const LEVEL_RESTRICTION: usize = 3;

fn problem(ctx: &Ctx) -> Problem {
    let spec = spec_by_name("COVTYPE").expect("COVTYPE is a Table II dataset");
    Problem {
        points: table2_standin(spec, ctx.size(8192, 2048), ctx.seed_for("points")),
        kernel: Gaussian::new(0.2 * (2.0 * spec.d as f64).sqrt()),
        leaf: 128,
        skel: SkelConfig::default()
            .with_tol(1e-3)
            .with_max_rank(128)
            .with_neighbors(16)
            .with_max_level(LEVEL_RESTRICTION)
            .with_seed(ctx.seed_for("row-sampling")),
    }
}

fn config() -> SolverConfig {
    SolverConfig::default().with_lambda(LAMBDA)
}

fn gmres() -> GmresOptions {
    GmresOptions { tol: 1e-8, max_iters: 400, restart: 60, reorthogonalize: true }
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let p = problem(ctx);
    ctx.announce_inputs(&p.points);
    if ctx.tracer.enabled() {
        traced(ctx, r, &p);
    } else {
        end_to_end(ctx, r, 1, |r, rng, times| repetition(&p, r, rng, times));
    }
}

/// One repetition: points → hybrid solver, a partial factorization and
/// hybrid solver at a second λ on the same skeletons, then one hybrid solve
/// to 1e-8, checked against the treecode matvec.
fn repetition(p: &Problem, r: &mut Report, rng: &mut Rng, times: &mut Times) {
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let st = p.skeletonize(&off);
    let built = factorize(&st, &p.kernel, config());
    let hybrid = built.as_ref().map(HybridSolver::new);
    let setup_s = t0.elapsed().as_secs_f64();
    let (Ok(ft), Ok(Ok(hybrid))) = (&built, &hybrid) else {
        r.op(false);
        return;
    };
    r.op(!ft.stats().is_unstable());
    times.setup_s.push(setup_s);
    times.factor_bytes = ft.stats().stored_bytes;

    let (again, refactor_s) = timed(|| {
        let ft = factorize(&st, &p.kernel, config().with_lambda(2.0 * LAMBDA))?;
        HybridSolver::new(&ft)?;
        Ok::<bool, kfds_core::SolverError>(!ft.stats().is_unstable())
    });
    r.op(again.is_ok_and(|stable| stable));
    times.refactor_s.push(refactor_s);

    let b = rng.vector(p.n());
    let (out, secs) = timed(|| hybrid.solve(&b, &gmres()));
    r.op(out.is_ok_and(|o| o.gmres.converged && solve_ok(&st, &p.kernel, LAMBDA, &o.x, &b, 1e-7)));
    times.solve_s.push(secs);
}

fn traced(ctx: &Ctx, r: &mut Report, p: &Problem) {
    let tr = &*ctx.tracer;
    traced_setups(ctx, r, |tr| {
        let setup = tr.open("setup");
        let t0 = Instant::now();
        let st = p.skeletonize(tr);
        let ft = tr.span("core.factorize", || factorize(&st, &p.kernel, config()));
        let ft = ft.expect("covtype_hybrid: partial factorization failed in the traced pass");
        let hybrid = tr.span("core.hybrid_new", || HybridSolver::new(&ft));
        let secs = t0.elapsed().as_secs_f64();
        drop(setup);
        hybrid.expect("covtype_hybrid: the frontier covers every leaf");
        secs
    });

    let mut rng = ctx.rng("rhs");
    let st = p.skeletonize(&Tracer::new(false));
    let (ft, factor_s) = timed(|| factorize(&st, &p.kernel, config()));
    let ft = ft.expect("covtype_hybrid: partial factorization failed in the traced pass");
    let hybrid = HybridSolver::new(&ft).expect("covtype_hybrid: the frontier covers every leaf");
    r.op(!ft.stats().is_unstable());
    pipeline::report_skeletons(r, &st);
    pipeline::report_factor_stats(r, ft.stats(), factor_s, p.n(), ctx.peak_gflops);
    pipeline::report_matvec_and_recall(r, tr, p, &st, &mut rng, ctx.size(8192, 1024));

    // One hybrid solve, then its three ingredients on their own: W then V
    // (one reduced-operator apply), and D⁻¹ (the direct part).
    let b = rng.vector(p.n());
    let (out, solve_s) = timed(|| tr.span("core.hybrid_solve", || hybrid.solve(&b, &gmres())));
    let out = out.expect("covtype_hybrid: hybrid solve failed in the traced pass");
    r.op(out.gmres.converged && solve_ok(&st, &p.kernel, LAMBDA, &out.x, &b, 1e-7));
    let z = rng.vector(hybrid.reduced_dim());
    let applies: Vec<f64> = (0..10)
        .map(|_| {
            timed(|| {
                tr.span("core.hybrid_apply_vw", || {
                    let mut wz = vec![0.0; p.n()];
                    hybrid.apply_w_pub(&z, &mut wz);
                    hybrid.apply_v_pub(&wz)
                })
            })
            .1
        })
        .collect();
    let dinvs: Vec<f64> = (0..3)
        .map(|_| {
            let mut v = b.clone();
            timed(|| tr.span("core.hybrid_dinv", || hybrid.apply_dinv_pub(&mut v))).1
        })
        .collect();
    let iters = out.gmres.iters as f64;
    let apply_s = median(&applies);
    let fastest_apply_s = applies.iter().copied().fold(f64::INFINITY, f64::min);
    r.set("core.hybrid_reduced_dim", hybrid.reduced_dim() as f64, 1);
    r.set("core.hybrid_apply_vw_ms", apply_s * 1e3, applies.len());
    r.set("core.hybrid_iter_ms", solve_s / iters.max(1.0) * 1e3, 1);
    r.set("krylov.gmres_iters", iters, 1);
    // What is left of the solve once the operator applies (one per
    // iteration and one to map back, each at the fastest rate seen, so this
    // is an upper bound) and the D⁻¹ sweep are taken out: Arnoldi
    // orthogonalization and the small least-squares updates.
    r.set("krylov.gmres_self_s", solve_s - (iters + 1.0) * fastest_apply_s - median(&dinvs), 1);
}
