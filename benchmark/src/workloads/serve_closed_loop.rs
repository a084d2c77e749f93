//! `serve_closed_loop` — the two-level solve service under a closed loop:
//! one generator thread keeps a window of 32 tickets outstanding (submit
//! until 32 are in flight, then wait on the oldest) against one service
//! worker. The only workload where queueing, request coalescing and the two
//! caches do the work; the solver kernels underneath are warm and small.
//! The generator and the worker together need no more threads than the
//! host has, so the numbers measure the service, not the scheduler.
//!
//! Phases: (a) cold starts — service start to the first answer on a cold
//! key; (b) warm four λ keys, each answer checked against an out-of-band
//! solve; (c) the closed loop, keys in seeded runs of eight; (d) sequential
//! requests on fresh λ keys — set-up hit, factor miss, LRU eviction.

use super::{traced_setups, MIN_SETUPS};
use crate::inputs::Rng;
use crate::metrics::Report;
use crate::pipeline::{self, mib, rel_diff, timed, Problem};
use crate::stats::{median, supported_percentile};
use crate::trace::{SpanId, Tracer};
use crate::{Budget, Ctx};
use kfds_askit::SkelConfig;
use kfds_core::{SharedFactor, SharedSetup, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_serve::{FactorKey, ServeConfig, ServeStats, SetupKey, SolveService};
use kfds_tree::datasets::normal_embedded;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outstanding tickets the generator keeps in flight.
const WINDOW: usize = 32;
/// Consecutive requests on one key before the next key is drawn.
const KEY_RUN: usize = 8;
/// The warm keys of phases (b) and (c).
const WARM_LAMBDAS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const BANDWIDTH: f64 = 1.0;

fn problem(ctx: &Ctx) -> Problem {
    Problem {
        points: normal_embedded(ctx.size(8192, 1024), 3, 8, 0.05, ctx.seed_for("points")),
        kernel: Gaussian::new(BANDWIDTH),
        leaf: 256,
        skel: SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(64)
            .with_neighbors(8)
            .with_max_level(1)
            .with_seed(ctx.seed_for("row-sampling")),
    }
}

fn base_config() -> SolverConfig {
    SolverConfig::default().with_storage(StorageMode::StoredGemv)
}

/// Fresh λ of the `i`-th miss of phase (d); never one of the warm keys.
fn miss_lambda(i: usize) -> f64 {
    0.75 + 0.5 * i as f64
}

/// What one service instance shares with the harness.
struct Bench {
    p: Arc<Problem>,
    /// The span the next set-up build belongs under; the builder runs on
    /// the service's worker thread, which has no open span of its own.
    build_parent: Arc<Mutex<Option<SpanId>>>,
    /// Pre-generated right-hand sides the requests cycle through.
    rhs: Vec<Vec<f64>>,
    seed: u64,
}

impl Bench {
    fn key(&self, lambda: f64) -> FactorKey {
        FactorKey::new("normal3d8", self.p.n(), BANDWIDTH, lambda, self.seed)
    }

    /// Starts a service whose set-up builder receives the pre-generated
    /// points only.
    fn start(&self, tr: &Arc<Tracer>, shards: usize) -> SolveService<Gaussian> {
        let cfg = ServeConfig::default()
            .with_workers(1)
            .with_max_batch(16)
            .with_high_water(1024)
            .with_cache_capacity(WARM_LAMBDAS.len())
            .with_default_timeout(Duration::from_secs(60))
            .with_shards(shards);
        let (p, tr, parent) = (Arc::clone(&self.p), Arc::clone(tr), Arc::clone(&self.build_parent));
        SolveService::start_two_level(cfg, base_config(), move |_key: &SetupKey| {
            let parent = *parent.lock().expect("build-parent mutex is never held across a panic");
            let _build = tr.open_in(parent, "serve.setup_build");
            let st = p.skeletonize(&tr);
            Ok(tr.span("core.assemble", || SharedSetup::build(Arc::new(st), Arc::new(p.kernel))))
        })
    }

    /// Names the span the next set-up build belongs under.
    fn set_build_parent(&self, parent: Option<SpanId>) {
        *self.build_parent.lock().expect("build-parent mutex is never held across a panic") =
            parent;
    }

    /// Phase (a): service start → first answer on a cold key. Seconds, and
    /// whether the answer arrived finite. Shutdown is outside the timing.
    fn cold_start(&self, tr: &Arc<Tracer>) -> (f64, bool) {
        let setup = tr.open("setup");
        self.set_build_parent(tr.current());
        let t0 = Instant::now();
        let svc = self.start(tr, 1);
        let answer = svc.submit(self.key(WARM_LAMBDAS[0]), self.rhs[0].clone()).map(|t| t.wait());
        let secs = t0.elapsed().as_secs_f64();
        drop(setup);
        svc.shutdown();
        (secs, matches!(answer, Ok(Ok(x)) if x.iter().all(|v| v.is_finite())))
    }
}

/// The out-of-band reference: the same set-up built outside any service.
struct Reference {
    setup: SharedSetup<Gaussian>,
}

impl Reference {
    fn new(p: &Problem) -> Self {
        let st = p.skeletonize(&Tracer::new(false));
        Reference { setup: SharedSetup::build(Arc::new(st), Arc::new(p.kernel)) }
    }

    fn factor(&self, lambda: f64) -> Option<SharedFactor<Gaussian>> {
        SharedFactor::refactorize(&self.setup, base_config().with_lambda(lambda)).ok()
    }

    /// `true` when `answer` is the out-of-band solution of `rhs` at `lambda`
    /// to ten digits. (A lone request is a batch of one, the same arithmetic
    /// as this solve; the tolerance leaves the service free to pad or
    /// regroup batches.)
    fn agrees(&self, lambda: f64, rhs: &[f64], answer: &[f64]) -> bool {
        let Some(factor) = self.factor(lambda) else { return false };
        let tree = self.setup.skeleton_tree().tree();
        let mut b = Mat::zeros(rhs.len(), 1);
        b.col_mut(0).copy_from_slice(&tree.permute_vec(rhs));
        let solved = factor.solve_block_in_place(&mut b, &GmresOptions::default()).is_ok();
        let ok = solved && rel_diff(answer, &tree.unpermute_vec(b.col(0))) <= 1e-10;
        if !ok {
            eprintln!("check failed: service answer at lambda = {lambda} differs from the out-of-band solve");
        }
        ok
    }
}

/// One sequential request: latency in seconds and the answer.
fn request(svc: &SolveService<Gaussian>, key: FactorKey, rhs: &[f64]) -> (f64, Option<Vec<f64>>) {
    let (answer, secs) = timed(|| svc.submit(key, rhs.to_vec()).map(|t| t.wait()));
    (secs, answer.ok().and_then(Result::ok))
}

/// Phase (c): the closed loop, submitting for `seconds` and then draining
/// the window. Returns the submit → answer latencies (seconds) of the
/// answered requests and the seconds the phase took.
fn closed_loop(
    bench: &Bench,
    svc: &SolveService<Gaussian>,
    tr: &Tracer,
    rng: &mut Rng,
    r: &mut Report,
    seconds: f64,
) -> (Vec<f64>, f64) {
    let phase = tr.open("serve.closed_loop");
    let parent = tr.current();
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut latencies = Vec::new();
    let (mut sent, mut key) = (0usize, bench.key(WARM_LAMBDAS[0]));
    let t0 = Instant::now();
    loop {
        let open = t0.elapsed().as_secs_f64() < seconds;
        while open && in_flight.len() < WINDOW {
            if sent % KEY_RUN == 0 {
                key = bench.key(WARM_LAMBDAS[rng.below(WARM_LAMBDAS.len())]);
            }
            let submitted = Instant::now();
            match svc.submit(key.clone(), bench.rhs[sent % bench.rhs.len()].clone()) {
                Ok(ticket) => in_flight.push_back((ticket, submitted)),
                Err(_) => r.op(false), // refused: counts as a failed request
            }
            sent += 1;
        }
        let Some((ticket, submitted)) = in_flight.pop_front() else { break };
        let answer = ticket.wait();
        let answered = Instant::now();
        tr.record(parent, "serve.request", submitted, answered);
        r.op(answer.is_ok_and(|x| x.iter().all(|v| v.is_finite())));
        latencies.push(answered.duration_since(submitted).as_secs_f64());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(phase);
    (latencies, elapsed)
}

/// Phase (b): one sequential request per warm key, each checked against
/// the out-of-band solve.
fn warm(bench: &Bench, svc: &SolveService<Gaussian>, reference: &Reference, r: &mut Report) {
    for (i, &lambda) in WARM_LAMBDAS.iter().enumerate() {
        let rhs = &bench.rhs[i % bench.rhs.len()];
        let (_, answer) = request(svc, bench.key(lambda), rhs);
        r.op(answer.is_some_and(|x| reference.agrees(lambda, rhs, &x)));
    }
}

/// The service-level checks at the end of a service's life: one set-up
/// build for the whole λ sweep, nothing refused, nothing failed.
fn clean(stats: &ServeStats) -> bool {
    let ok = stats.setup_builds == 1
        && stats.errors == 0
        && stats.rejected_overload == 0
        && stats.rejected_deadline == 0;
    if !ok {
        eprintln!("check failed: service counters {}", stats.to_json());
    }
    ok
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let p = Arc::new(problem(ctx));
    ctx.announce_inputs(&p.points);
    let mut rng = ctx.rng("rhs");
    let bench = Bench {
        rhs: (0..WINDOW).map(|_| rng.vector(p.n())).collect(),
        p,
        build_parent: Arc::new(Mutex::new(None)),
        seed: ctx.seed,
    };
    let reference = Reference::new(&bench.p);
    if ctx.tracer.enabled() {
        traced(ctx, r, &bench, &reference);
    } else {
        end_to_end(ctx, r, &bench, &reference);
    }
}

fn end_to_end(ctx: &Ctx, r: &mut Report, bench: &Bench, reference: &Reference) {
    let off = Arc::new(Tracer::new(false));
    let mut keys = ctx.rng("key-order");

    // (a) a quarter of the window; the first cold start is discarded.
    bench.cold_start(&off);
    let budget = Budget::new(0.25 * ctx.seconds);
    let mut cold = Vec::new();
    loop {
        let (secs, ok) = bench.cold_start(&off);
        r.op(ok);
        cold.push(secs);
        if cold.len() >= MIN_SETUPS && !budget.fits(secs) {
            break;
        }
    }

    let svc = bench.start(&off, 1);
    warm(bench, &svc, reference, r);
    // (c) half of the window.
    let (latencies, looping) = closed_loop(bench, &svc, &off, &mut keys, r, 0.5 * ctx.seconds);

    // (d) the last quarter, out-of-band checks included.
    let budget = Budget::new(0.25 * ctx.seconds);
    let mut misses = Vec::new();
    loop {
        let lambda = miss_lambda(misses.len());
        let rhs = &bench.rhs[misses.len() % bench.rhs.len()];
        let ((secs, agrees), cost) = timed(|| {
            let (secs, answer) = request(&svc, bench.key(lambda), rhs);
            (secs, answer.is_some_and(|x| reference.agrees(lambda, rhs, &x)))
        });
        r.op(agrees);
        misses.push(secs);
        if misses.len() >= MIN_SETUPS && !budget.fits(cost) {
            break;
        }
    }
    r.op(clean(&svc.shutdown()));

    r.set("setup_s", median(&cold), cold.len());
    r.set("refactor_s", median(&misses), misses.len());
    r.set("solve_ms", median(&latencies) * 1e3, latencies.len());
    r.set("solve_rhs_per_s", latencies.len() as f64 / looping, latencies.len());
    let factor_bytes = reference.factor(1.0).map_or(0, |f| f.factor_tree().stats().stored_bytes);
    r.set("factor_mib", mib(factor_bytes + reference.setup.blocks().stats().bytes), 1);
}

fn traced(ctx: &Ctx, r: &mut Report, bench: &Bench, reference: &Reference) {
    let tr = &ctx.tracer;
    let mut keys = ctx.rng("key-order");
    let mut rng = ctx.rng("probe-rhs");
    traced_setups(ctx, r, |tr| {
        let (secs, ok) = bench.cold_start(tr);
        assert!(ok, "serve_closed_loop: cold start failed in the traced pass");
        secs
    });

    // One traced pass through phases (b)–(d) on a single service.
    bench.set_build_parent(None);
    let svc = bench.start(tr, 1);
    warm(bench, &svc, reference, r);
    let seconds = if ctx.quick { 0.5 } else { 3.0 };
    let (latencies, elapsed) = closed_loop(bench, &svc, tr, &mut keys, r, seconds);
    let rps = latencies.len() as f64 / elapsed;
    for i in 0..4 {
        let (lambda, rhs) = (miss_lambda(i), &bench.rhs[i]);
        let (_, answer) = tr.span("serve.miss", || request(&svc, bench.key(lambda), rhs));
        r.op(answer.is_some_and(|x| reference.agrees(lambda, rhs, &x)));
    }
    r.set("serve.factor_builds", svc.factor_builds() as f64, 1);
    let stats = svc.shutdown();
    r.op(clean(&stats));
    r.set("serve.mean_batch", stats.mean_batch, stats.batches as usize);
    r.set("serve.batches", stats.batches as f64, 1);
    r.set("serve.cache_hit_rate", stats.cache_hit_rate(), stats.batches as usize);
    r.set("serve.setup_builds", stats.setup_builds as f64, 1);
    r.set("serve.rejected_overload", stats.rejected_overload as f64, 1);
    r.set("serve.rejected_deadline", stats.rejected_deadline as f64, 1);
    r.set("serve.errors", stats.errors as f64, 1);
    r.set("serve.max_queue_depth", stats.max_queue_depth as f64, 1);
    // The harness clock, not the service's log₂-bucketed histogram.
    for (name, p) in [("serve.total_p90_ms", 90.0), ("serve.total_p99_ms", 99.0)] {
        let tail = supported_percentile(&latencies, p).unwrap_or(0.0);
        r.set(name, tail * 1e3, latencies.len());
    }

    // The solver under the service, out of band: what the service would
    // do at best if batching and queueing cost nothing.
    let refactors: Vec<f64> = WARM_LAMBDAS[..3]
        .iter()
        .map(|&l| timed(|| tr.span("core.factorize", || drop(reference.factor(l)))).1)
        .collect();
    let refactor_s = median(&refactors);
    r.set("core.factor_s", refactor_s, refactors.len());
    let factor = reference.factor(1.0).expect("serve_closed_loop: out-of-band refactorization");
    let ft = factor.factor_tree();
    let st = reference.setup.skeleton_tree();
    r.set("core.assemble_mib", mib(reference.setup.blocks().stats().bytes), 1);
    pipeline::report_skeletons(r, st);
    pipeline::report_factor_stats(r, ft.stats(), refactor_s, bench.p.n(), ctx.peak_gflops);
    pipeline::report_direct_solves(r, tr, ft, &mut rng, 20);
    pipeline::report_matvec_and_recall(r, tr, &bench.p, st, &mut rng, ctx.size(8192, 1024));
    let solve16_s = r.get("core.solve16_s").map_or(f64::NAN, |s| s.value);
    r.set("serve.efficiency", rps * solve16_s / 16.0, latencies.len());

    // The same loop through the two-shard tier: a baseline for the sharding
    // issue; on a host this narrow it moves no gated metric.
    let svc = bench.start(tr, 2);
    warm(bench, &svc, reference, r);
    let (sharded, elapsed) = closed_loop(bench, &svc, tr, &mut keys, r, seconds / 3.0);
    let stats = svc.shutdown();
    r.op(clean(&stats));
    r.set("shard.serve_rps_p2", sharded.len() as f64 / elapsed, sharded.len());
    r.set("shard.fallbacks", stats.shard_fallbacks as f64, 1);
    let rows = || stats.shards.iter().map(|lane| lane.rows_solved);
    let spread = rows().max().unwrap_or(0) - rows().min().unwrap_or(0);
    let mean = rows().sum::<u64>() as f64 / rows().count().max(1) as f64;
    r.set("shard.lane_rows_imbalance", spread as f64 / mean.max(1.0), rows().count());
}
