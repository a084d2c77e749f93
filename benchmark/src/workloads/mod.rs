//! The four workloads. Each has an end-to-end pass (tracer off, operations
//! repeated until `--seconds` is used up, medians reported) and a traced
//! pass (spans around every public call, then the layer numbers only this
//! workload can give).

mod covtype_hybrid;
mod lowdim_lambda_sweep;
mod normal64d_direct;
mod serve_closed_loop;

use crate::inputs::Rng;
use crate::metrics::Report;
use crate::pipeline::{mib, timed};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Budget, Ctx};
use kfds_la::workspace;
use std::sync::Arc;

/// A workload: its name and the function that runs either of its passes.
pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Ctx, &mut Report),
}

/// The workloads, in `BENCHMARK.json` order.
pub const ALL: &[Workload] = &[
    Workload { name: "normal64d_direct", run: normal64d_direct::run },
    Workload { name: "covtype_hybrid", run: covtype_hybrid::run },
    Workload { name: "lowdim_lambda_sweep", run: lowdim_lambda_sweep::run },
    Workload { name: "serve_closed_loop", run: serve_closed_loop::run },
];

/// Fewest set-ups an end-to-end pass reports a median of.
pub const MIN_SETUPS: usize = 3;

/// Seconds of the three operations a library workload repeats, and the
/// bytes the last factorization (with its assembled blocks) holds.
#[derive(Default)]
pub struct Times {
    pub setup_s: Vec<f64>,
    pub refactor_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    pub factor_bytes: usize,
}

/// The end-to-end pass of a library workload. `repetition` runs one set-up
/// and the operations that follow it, recording seconds and operation
/// outcomes. The first repetition is discarded: it pays the first touch of
/// the factor arenas.
pub fn end_to_end(
    ctx: &Ctx,
    r: &mut Report,
    rhs_per_solve: usize,
    mut repetition: impl FnMut(&mut Report, &mut Rng, &mut Times),
) {
    let mut rng = ctx.rng("rhs");
    repetition(r, &mut rng, &mut Times::default());
    let mut times = Times::default();
    let budget = Budget::new(ctx.seconds);
    loop {
        let ((), cost) = timed(|| repetition(r, &mut rng, &mut times));
        if times.setup_s.len() >= MIN_SETUPS && !budget.fits(cost) {
            break;
        }
    }
    r.set("setup_s", median(&times.setup_s), times.setup_s.len());
    r.set("refactor_s", median(&times.refactor_s), times.refactor_s.len());
    r.set("solve_ms", median(&times.solve_s) * 1e3, times.solve_s.len());
    let solving: f64 = times.solve_s.iter().sum();
    let solved = (rhs_per_solve * times.solve_s.len()) as f64;
    r.set("solve_rhs_per_s", solved / solving, times.solve_s.len());
    r.set("factor_mib", mib(times.factor_bytes), 1);
}

/// Span name → the per-layer metric its median duration is reported as.
const STAGES: &[(&str, &str)] = &[
    ("tree.build", "tree.build_s"),
    ("tree.knn", "tree.knn_s"),
    ("askit.skeletonize", "askit.skeletonize_s"),
    ("core.assemble", "core.assemble_s"),
    ("core.factorize", "core.factor_s"),
];

/// The set-up part of every traced pass. `setup` runs one set-up through
/// the tracer it is given and returns its outer-region seconds. After one
/// discarded first repetition (it pays the first touch of the factor
/// arenas), untraced and traced repetitions alternate; their difference is
/// the tracing overhead and the traced spans give the stage times.
pub fn traced_setups(ctx: &Ctx, r: &mut Report, mut setup: impl FnMut(&Arc<Tracer>) -> f64) {
    let off = Arc::new(Tracer::new(false));
    r.set("bench.first_rep_setup_s", setup(&off), 1);
    let reps = 5;
    let (hits0, misses0) = workspace::stats();
    let tiles0 = kfds_tree::blocked_tile_count();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        plain.push(setup(&off));
        ctx.tracer.set_context(ctx.workload, rep);
        traced.push(setup(&ctx.tracer));
    }
    let (hits1, misses1) = workspace::stats();
    let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
    r.set("la.pool_hit_rate", hits / (hits + misses).max(1.0), 2 * reps as usize);
    let tiles = (kfds_tree::blocked_tile_count() - tiles0) as f64;
    r.set("tree.knn_tiles", tiles / f64::from(2 * reps), 2 * reps as usize);
    let untraced = median(&plain);
    r.set("bench.trace_overhead_frac", (median(&traced) - untraced) / untraced, reps as usize);
    for (span, metric) in STAGES {
        let secs = ctx.tracer.seconds_of(span);
        if !secs.is_empty() {
            r.set(metric, median(&secs), secs.len());
        }
    }
}
