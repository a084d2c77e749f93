//! Per-shard counters for the sharded serve tier.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live per-shard counters, updated by the shard's worker thread with
/// relaxed atomics (monotonic event counts; no cross-counter ordering is
/// implied or needed).
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub requests: AtomicU64,
    pub rows_solved: AtomicU64,
    pub errors: AtomicU64,
}

impl ShardCounters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self, shard: usize) -> ShardLane {
        ShardLane {
            shard,
            requests: self.requests.load(Ordering::Relaxed),
            rows_solved: self.rows_solved.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counters of one shard lane, as surfaced through
/// `ServeStats` and the smoke lane's JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLane {
    /// Shard index (also the transport rank of its worker).
    pub shard: usize,
    /// Scatter/gather requests this shard served (one per routed batch).
    pub requests: u64,
    /// Total RHS rows solved locally (`shard rows × nrhs`, summed).
    pub rows_solved: u64,
    /// Requests that failed on this shard (bad payload or a panicking
    /// local solve).
    pub errors: u64,
}

impl ShardLane {
    /// Renders the lane as a JSON object (the serve tier's hand-rolled
    /// stats JSON embeds it verbatim).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"requests\": {}, \"rows_solved\": {}, \"errors\": {}}}",
            self.shard, self.requests, self.rows_solved, self.errors
        )
    }
}
