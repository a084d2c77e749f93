//! `kfds-serve`: stand up the batched solve service over synthetic
//! NORMAL-embedded datasets and drive it with a closed-loop load
//! generator, printing the [`ServeStats`] snapshot as JSON.
//!
//! ```text
//! kfds-serve [--n N] [--keys K] [--clients C] [--requests R]
//!            [--max-batch B] [--workers W] [--high-water H]
//!            [--timeout-ms T] [--shards P] [--smoke]
//! ```
//!
//! The `K` factorization keys share one dataset/bandwidth/seed and vary
//! **only in λ** — the cross-validation sweep shape — so the run drives
//! the two-level cache: exactly one λ-free setup build (tree + kNN +
//! skeletonization + kernel-block assembly), with every λ paying only the
//! refactorization, plus the batcher (C concurrent clients submitting
//! against few keys coalesce into blocked solves). `--shards P` serves
//! through the shard tier: every complete-factorization batch is
//! partitioned across `P` rank-owned subtree shards and scatter/gathered
//! over the in-process transport — bitwise-identical answers, with one
//! counter lane per shard in the stats JSON. `--smoke` shrinks the
//! problem and asserts a clean run — zero errors, every request answered,
//! cache hit rate above zero, **setup built exactly once**, and (sharded)
//! a bitwise match against the unsharded solve plus per-shard lane
//! accounting (every batch reached every shard, which solved its rows of
//! every right-hand side) — exiting nonzero otherwise, which is what
//! `ci.sh` runs.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{SharedSetup, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_serve::{FactorKey, ServeConfig, ServeError, SetupKey, SolveService};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    n: usize,
    keys: usize,
    clients: usize,
    requests: usize,
    max_batch: usize,
    workers: usize,
    high_water: usize,
    timeout_ms: u64,
    shards: usize,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 4096,
            keys: 2,
            clients: 16,
            requests: 512,
            max_batch: 16,
            workers: 2,
            high_water: 1024,
            timeout_ms: 30_000,
            shards: 1,
            smoke: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} expects an integer argument"))
        };
        match flag.as_str() {
            "--n" => args.n = grab("--n")?,
            "--keys" => args.keys = grab("--keys")?.max(1),
            "--clients" => args.clients = grab("--clients")?.max(1),
            "--requests" => args.requests = grab("--requests")?,
            "--max-batch" => args.max_batch = grab("--max-batch")?.max(1),
            "--workers" => args.workers = grab("--workers")?.max(1),
            "--high-water" => args.high_water = grab("--high-water")?.max(1),
            "--timeout-ms" => args.timeout_ms = grab("--timeout-ms")? as u64,
            "--shards" => args.shards = grab("--shards")?.max(1),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.smoke {
        args.n = args.n.min(1024);
        args.requests = args.requests.min(128);
    }
    Ok(args)
}

/// Builds the λ-free setup for a key: the key's seed picks the dataset,
/// its `h` the kernel. All the λ keys derived from this setup then pay
/// only the refactorization (StoredGemv — the fastest-solve storage mode,
/// the right trade for serve-style workloads: factor once, solve many).
fn build_setup(key: &SetupKey) -> Result<SharedSetup<Gaussian>, ServeError> {
    let pts = normal_embedded(key.n, 3, 8, 0.05, key.seed);
    let kernel = Gaussian::new(key.h());
    let tree = BallTree::build(&pts, 256);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8).with_max_level(1),
    );
    Ok(SharedSetup::build(Arc::new(st), Arc::new(kernel)))
}

fn main() {
    // Usage errors exit 2, runtime failures exit 1 — never a panic
    // backtrace: this binary is a CI gate and its stderr is the report.
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kfds-serve: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("kfds-serve: {e}");
        std::process::exit(1);
    }
}

fn run(args: Args) -> Result<(), String> {
    // λ-only key spread over one (dataset, n, h, seed): the shape of a
    // regularization sweep, and the best case for the two-level cache.
    let keys: Vec<FactorKey> = (0..args.keys)
        .map(|i| FactorKey::new("normal3d8", args.n, 1.0, 0.5 + 0.25 * i as f64, 42))
        .collect();

    let cfg = ServeConfig::default()
        .with_workers(args.workers)
        .with_max_batch(args.max_batch)
        .with_high_water(args.high_water)
        .with_default_timeout(Duration::from_millis(args.timeout_ms))
        .with_cache_capacity(args.keys.max(2))
        .with_shards(args.shards);
    // A `--shards P` request still yields a single-node service when the
    // `KFDS_SHARD` kill-switch is off; the smoke lane accounting below
    // follows the tier that actually ran.
    let sharding_active = args.shards > 1 && !kfds_switches::KFDS_SHARD.is_off();
    let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
    let svc = Arc::new(SolveService::start_two_level(cfg, base, build_setup));

    // Warm the cache up front so the measured phase is pure serving.
    for key in &keys {
        let t = svc
            .submit(key.clone(), vec![1.0; args.n])
            .map_err(|e| format!("warmup submit failed: {e}"))?;
        t.wait().map_err(|e| format!("warmup solve failed: {e}"))?;
    }

    // Sharded smoke pre-check: a sequential single-request round trip
    // dispatches as a batch of one, so the service answer and an
    // out-of-band unsharded blocked solve of the same 1-column matrix
    // must agree **bitwise** (the shard tier only repartitions the same
    // arithmetic). The same reference factor says how many rows each shard
    // owns, for the lane accounting below.
    let shard_rows: Vec<u64> = if args.smoke && args.shards > 1 {
        let skey = SetupKey::from(&keys[0]);
        let setup = build_setup(&skey).map_err(|e| format!("reference setup failed: {e}"))?;
        let sf = kfds_core::SharedFactor::refactorize(&setup, base.with_lambda(keys[0].lambda()))
            .map_err(|e| format!("reference factorization failed: {e}"))?;
        let rhs: Vec<f64> = (0..args.n).map(|i| 0.25 + ((i * 11) % 13) as f64 / 13.0).collect();
        let tree = sf.skeleton_tree().tree();
        let mut b = kfds_la::Mat::zeros(args.n, 1);
        b.col_mut(0).copy_from_slice(&tree.permute_vec(&rhs));
        sf.solve_block_in_place(&mut b, &kfds_krylov::GmresOptions::default())
            .map_err(|e| format!("reference solve failed: {e}"))?;
        let want = tree.unpermute_vec(b.col(0));
        let got = svc
            .submit(keys[0].clone(), rhs)
            .map_err(|e| format!("pre-check submit failed: {e}"))?
            .wait()
            .map_err(|e| format!("pre-check routed solve failed: {e}"))?;
        if got != want {
            return Err("SMOKE FAIL: sharded answer differs from the unsharded solve".into());
        }
        eprintln!("sharded bitwise pre-check OK (p = {})", args.shards);
        let pf = kfds_core::PartitionedFactor::partition(sf, args.shards)
            .map_err(|e| format!("reference partition failed: {e}"))?;
        (0..args.shards).map(|s| pf.shard_range(s).len() as u64).collect()
    } else {
        Vec::new()
    };

    let t0 = Instant::now();
    let answered = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let per_client = args.requests.div_ceil(args.clients);
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let keys = keys.clone();
            let answered = Arc::clone(&answered);
            let failed = Arc::clone(&failed);
            std::thread::spawn(move || {
                for r in 0..per_client {
                    let key = keys[(c + r) % keys.len()].clone();
                    let rhs: Vec<f64> =
                        (0..key.n).map(|i| 1.0 + ((c + r + i) % 7) as f64 * 0.1).collect();
                    // Closed loop: submit, wait, repeat. Retry briefly on
                    // backpressure so every request eventually lands.
                    loop {
                        match svc.submit(key.clone(), rhs.clone()) {
                            Ok(ticket) => {
                                match ticket.wait() {
                                    Ok(x) => {
                                        assert!(x.iter().all(|v| v.is_finite()));
                                        answered.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        failed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                break;
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => {
                                // A hard submit refusal (e.g. shutdown) is
                                // a failed request, not a process abort;
                                // the smoke gate fails on the counter.
                                eprintln!("client {c}: submit failed: {e}");
                                failed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().map_err(|_| "a client thread panicked".to_string())?;
    }
    let elapsed = t0.elapsed();

    let stats = svc.stats();
    let total = args.clients * per_client;
    let rps = answered.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
    println!("{}", stats.to_json());
    eprintln!(
        "served {} requests in {:.2}s ({rps:.1} rps, mean batch {:.2}, cache hit rate {:.3}, \
         setup builds {}, shards {}, shard fallbacks {})",
        answered.load(Ordering::Relaxed),
        elapsed.as_secs_f64(),
        stats.mean_batch,
        stats.cache_hit_rate(),
        stats.setup_builds,
        stats.shards.len(),
        stats.shard_fallbacks,
    );

    if args.smoke {
        // The keys differ only in λ, so the whole run must perform exactly
        // one setup build (tree + skeletonization + assembly) — that is
        // the amortization the two-level cache exists for.
        let ok = stats.errors == 0
            && failed.load(Ordering::Relaxed) == 0
            && answered.load(Ordering::Relaxed) as usize == total
            && stats.cache_hit_rate() > 0.0
            && stats.cache_poisoned == 0
            && stats.setup_builds == 1
            && stats.full_misses == 1
            && stats.setup_hits == args.keys as u64 - 1;
        // Per-shard accounting: with every factor complete, every batch
        // routes (no fallbacks) and reaches every shard exactly once, and
        // each shard solves its own rows of every right-hand side answered.
        let lanes_ok = if sharding_active {
            stats.shards.len() == args.shards
                && stats.shard_fallbacks == 0
                && stats.shards.iter().all(|l| {
                    l.errors == 0
                        && l.requests == stats.batches
                        && l.rows_solved == shard_rows[l.shard] * stats.completed
                })
        } else {
            stats.shards.is_empty() && stats.shard_fallbacks == 0
        };
        if !ok || !lanes_ok {
            return Err(format!(
                "SMOKE FAIL: errors={} failed={} answered={}/{} hit_rate={:.3} poisoned={} \
                 setup_builds={} setup_hits={} full_misses={} shard_lanes={:?} \
                 shard_fallbacks={}",
                stats.errors,
                failed.load(Ordering::Relaxed),
                answered.load(Ordering::Relaxed),
                total,
                stats.cache_hit_rate(),
                stats.cache_poisoned,
                stats.setup_builds,
                stats.setup_hits,
                stats.full_misses,
                stats.shards,
                stats.shard_fallbacks,
            ));
        }
        eprintln!("SMOKE OK");
    }
    Ok(())
}
