//! # kfds-serve — batched solve service over the fast direct solver
//!
//! A factorization of `λI + K̃` costs `O(s²N log N)` to build but only
//! `O(sN log N)` per solve — and a *blocked* solve amortizes the factor
//! traversal across right-hand sides, turning GEMV-shaped work into GEMM.
//! That asymmetry is exactly the shape of a serving workload: build (or
//! cache) once, answer many small solve requests. This crate turns the
//! solver into such a service:
//!
//! * [`FactorCache`] — single-flight, LRU-evicting cache of owned
//!   factorization handles ([`kfds_core::SharedFactor`]) keyed by
//!   [`FactorKey`] `(dataset, n, kernel bandwidth, λ, tree seed)`; failed
//!   or panicking builds quarantine their key. In front of it the
//!   service ([`SolveService::start_two_level`]) keeps a [`SetupCache`]
//!   keyed by the λ-free [`SetupKey`], so factor keys differing only in λ
//!   share one tree + skeletonization + kernel-block assembly
//!   ([`kfds_core::SharedSetup`]) and pay only the refactorization.
//! * [`SolveService`] — bounded request queue + worker threads with
//!   adaptive micro-batching: same-key requests are coalesced (up to
//!   `max_batch`) into one blocked multi-RHS solve, with a short linger
//!   window only while under load. Explicit backpressure
//!   ([`ServeError::Overloaded`]) past the high-water mark, and
//!   per-request deadlines.
//! * [`ServeStats`] — relaxed-atomic counters plus queue/solve/total
//!   latency histograms and the batch-size distribution, rendered as
//!   JSON.
//!
//! * Sharded serving — `ServeConfig::with_shards(p)` partitions every
//!   complete factorization into `p` rank-owned subtree shards
//!   ([`kfds_core::PartitionedFactor`], the cut of the paper's distributed
//!   Algorithms II.4/II.5) and solves them in turn on the service worker
//!   that took the batch, so a sharded service starts no thread beyond
//!   its workers. The answers are **bitwise-identical** to the
//!   single-node blocked solve. Per-shard rows solved surface as
//!   [`ShardLane`]s in [`ServeStats`]; `with_shards(1)` (the default) is
//!   the single-node service the sharded one is tested against.
//!
//! Runtime: plain OS threads and condvars — no async executor. The
//! `kfds-serve` binary wraps the service with a closed-loop load
//! generator; `--max-batch 1` serves unbatched.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

pub mod cache;
pub mod service;
pub mod stats;

pub use cache::{CacheError, FactorCache, FactorKey, SetupCache, SetupKey, SingleFlightCache};
pub use kfds_rt::sync::LockRank;
pub use service::{ServeConfig, SolveService, Ticket};
pub use stats::{Quantiles, ServeStats, ShardLane};

/// Errors a request (or the service) can answer with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Rejected at submit time: queue depth reached the high-water mark.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The request's deadline passed before it was dispatched.
    DeadlineExceeded,
    /// The factorization build for this key failed (this request raced
    /// the failing build).
    FactorizationFailed(String),
    /// The key was already quarantined by an earlier failed build.
    Quarantined(String),
    /// The request itself was malformed (e.g. wrong RHS length).
    BadRequest(String),
    /// The service is shutting down.
    ShuttingDown,
    /// The blocked solve failed or panicked.
    SolveFailed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "service overloaded (queue depth {depth})")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded in queue"),
            ServeError::FactorizationFailed(e) => write!(f, "factorization failed: {e}"),
            ServeError::Quarantined(e) => {
                write!(f, "factorization quarantined by earlier failure: {e}")
            }
            ServeError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::SolveFailed(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
