//! Lightweight service observability: lock-free counters and log₂-bucketed
//! latency histograms, snapshotted into a [`ServeStats`] that renders as
//! JSON.
//!
//! The recording side is all relaxed atomics — a counter bump and (for
//! latencies) one bucket increment — so instrumentation does not perturb
//! the solve hot path. Percentiles are estimated from the power-of-two
//! bucket boundaries (geometric midpoint), which is accurate to ~±41% per
//! bucket — plenty for p50/p99 dashboards, and the exact max is tracked
//! alongside.

use kfds_core::LevelStats;
use kfds_rt::sync::{LockRank, RankedMutex};
use kfds_shard::ShardLane;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^{i+1})` µs,
/// so 40 buckets reach ~12.7 days.
const LAT_BUCKETS: usize = 40;

/// Largest exactly-tracked batch size; bigger batches land in the last
/// bucket.
pub const MAX_TRACKED_BATCH: usize = 128;

/// A log₂-bucketed latency histogram (microsecond resolution).
pub(crate) struct LatencyHist {
    buckets: [AtomicU64; LAT_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    pub(crate) fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (us.max(1).ilog2() as usize).min(LAT_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Approximate quantile in microseconds (geometric bucket midpoint,
    /// clamped by the exact maximum).
    fn quantile(&self, q: f64) -> f64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let lo = (1u64 << i) as f64;
                let mid = lo * std::f64::consts::SQRT_2;
                return mid.min(self.max_us.load(Ordering::Relaxed) as f64);
            }
        }
        self.max_us.load(Ordering::Relaxed) as f64
    }

    pub(crate) fn snapshot(&self) -> Quantiles {
        let count = self.count.load(Ordering::Relaxed);
        Quantiles {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
            },
            p50_us: self.quantile(0.50),
            p90_us: self.quantile(0.90),
            p99_us: self.quantile(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one latency histogram.
#[derive(Clone, Debug, Default)]
pub struct Quantiles {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (µs).
    pub mean_us: f64,
    /// Approximate median (µs).
    pub p50_us: f64,
    /// Approximate 90th percentile (µs).
    pub p90_us: f64,
    /// Approximate 99th percentile (µs).
    pub p99_us: f64,
    /// Exact maximum (µs).
    pub max_us: u64,
}

impl Quantiles {
    fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {}}}",
            self.count, self.mean_us, self.p50_us, self.p90_us, self.p99_us, self.max_us
        )
    }
}

/// Exact batch-size distribution up to [`MAX_TRACKED_BATCH`].
pub(crate) struct BatchHist {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for BatchHist {
    fn default() -> Self {
        BatchHist {
            buckets: (0..=MAX_TRACKED_BATCH).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl BatchHist {
    pub(crate) fn record(&self, batch: usize) {
        self.buckets[batch.min(MAX_TRACKED_BATCH)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(batch as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (Vec<(usize, u64)>, f64) {
        let hist: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(sz, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((sz, c))
            })
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let mean =
            if count == 0 { 0.0 } else { self.sum.load(Ordering::Relaxed) as f64 / count as f64 };
        (hist, mean)
    }
}

/// All service metrics, recorded in place by the submit path and workers.
pub(crate) struct Metrics {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub errors: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Factor-level misses that found the λ-free setup cached (paid only
    /// the refactorization).
    pub setup_hits: AtomicU64,
    /// Misses at both levels (paid tree + skeletonization + assembly +
    /// factorization).
    pub full_misses: AtomicU64,
    pub batches: AtomicU64,
    /// Batches a sharded service served on the single-node path anyway
    /// (hybrid factor, unpartitionable cut, or a racing router shutdown).
    /// Always 0 for an unsharded service.
    pub shard_fallbacks: AtomicU64,
    pub max_queue_depth: AtomicU64,
    pub batch_hist: BatchHist,
    /// Per-level breakdown of the most recently *built* factorization
    /// (recorded on factor-cache misses; hits never touch it). Not on the
    /// hot path — one mutex store per factor build.
    pub factor_levels: RankedMutex<Vec<LevelStats>>,
    /// Submit → dispatch.
    pub queue_us: LatencyHist,
    /// One blocked solve call (per batch).
    pub solve_us: LatencyHist,
    /// Submit → response.
    pub total_us: LatencyHist,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            setup_hits: AtomicU64::new(0),
            full_misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            shard_fallbacks: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            batch_hist: BatchHist::default(),
            factor_levels: RankedMutex::new(LockRank::ServeMetrics, Vec::new()),
            queue_us: LatencyHist::default(),
            solve_us: LatencyHist::default(),
            total_us: LatencyHist::default(),
        }
    }
}

impl Metrics {
    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        cache_entries: usize,
        cache_poisoned: usize,
        setup_entries: usize,
        setup_builds: u64,
        shards: Vec<ShardLane>,
    ) -> ServeStats {
        let (batch_hist, mean_batch) = self.batch_hist.snapshot();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            setup_hits: self.setup_hits.load(Ordering::Relaxed),
            full_misses: self.full_misses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            shard_fallbacks: self.shard_fallbacks.load(Ordering::Relaxed),
            shards,
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            cache_entries,
            cache_poisoned,
            setup_entries,
            setup_builds,
            batch_hist,
            mean_batch,
            factor_levels: self.factor_levels.lock().clone(),
            queue: self.queue_us.snapshot(),
            solve: self.solve_us.snapshot(),
            total: self.total_us.snapshot(),
        }
    }
}

/// A point-in-time snapshot of the service's counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Requests rejected at submit time (queue past the high-water mark).
    pub rejected_overload: u64,
    /// Requests dropped at dispatch because their deadline had passed.
    pub rejected_deadline: u64,
    /// Requests answered with an error (factorization/solve failures).
    pub errors: u64,
    /// Batch dispatches served from a cached factorization (factor-level
    /// hits: the λ-specific factors were resident).
    pub cache_hits: u64,
    /// Batch dispatches that had to build (or wait for) a factorization —
    /// the sum of [`ServeStats::setup_hits`] and
    /// [`ServeStats::full_misses`] under the two-level cache.
    pub cache_misses: u64,
    /// Factor-level misses whose λ-free setup (tree + skeletonization +
    /// assembled blocks) was cached: only the refactorization ran.
    pub setup_hits: u64,
    /// Dispatches that missed both cache levels and paid the full build.
    pub full_misses: u64,
    /// Solve batches dispatched.
    pub batches: u64,
    /// Batches a sharded service served single-node anyway (hybrid
    /// factor, unpartitionable shard cut, or a racing router shutdown) —
    /// bitwise the same answers, just without the shard fan-out. Always 0
    /// for an unsharded service.
    pub shard_fallbacks: u64,
    /// One lane of counters per shard worker (empty for an unsharded
    /// service): requests seen, local partition-cache hits/misses, rows
    /// solved, and errors.
    pub shards: Vec<ShardLane>,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Deepest queue observed at any submit.
    pub max_queue_depth: u64,
    /// Ready factorizations resident in the cache.
    pub cache_entries: usize,
    /// Quarantined (poisoned) factorization keys.
    pub cache_poisoned: usize,
    /// Ready λ-free setups resident in the setup cache (0 for a
    /// single-level service).
    pub setup_entries: usize,
    /// Setup builders run over the service lifetime (a λ sweep through
    /// the two-level cache keeps this at 1 per distinct setup).
    pub setup_builds: u64,
    /// `(batch_size, count)` pairs with nonzero counts.
    pub batch_hist: Vec<(usize, u64)>,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Per-level breakdown (nodes, seconds) of the most
    /// recently built factorization — empty until the first factor-cache
    /// miss, or when the builder is not level-synchronous.
    pub factor_levels: Vec<LevelStats>,
    /// Time-in-queue distribution.
    pub queue: Quantiles,
    /// Per-batch solve-call distribution.
    pub solve: Quantiles,
    /// End-to-end request latency distribution.
    pub total: Quantiles,
}

impl ServeStats {
    /// Fraction of batch dispatches that found a ready factorization.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the snapshot as a JSON object (stable field order, no
    /// dependencies — same hand-rolled style as the bench harnesses).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> =
            self.batch_hist.iter().map(|(sz, c)| format!("[{sz}, {c}]")).collect();
        let shards: Vec<String> = self.shards.iter().map(ShardLane::to_json).collect();
        let levels: Vec<String> = self
            .factor_levels
            .iter()
            .map(|l| {
                format!(
                    "{{\"level\": {}, \"nodes\": {}, \"seconds\": {:.6}}}",
                    l.level, l.nodes, l.seconds
                )
            })
            .collect();
        format!(
            "{{\n  \"submitted\": {},\n  \"completed\": {},\n  \"rejected_overload\": {},\n  \"rejected_deadline\": {},\n  \"errors\": {},\n  \"factor_hits\": {},\n  \"setup_hits\": {},\n  \"full_misses\": {},\n  \"cache_hit_rate\": {:.4},\n  \"cache_entries\": {},\n  \"cache_poisoned\": {},\n  \"setup_entries\": {},\n  \"setup_builds\": {},\n  \"batches\": {},\n  \"shard_fallbacks\": {},\n  \"shards\": [{}],\n  \"mean_batch\": {:.3},\n  \"batch_hist\": [{}],\n  \"factor_levels\": [{}],\n  \"queue_depth\": {},\n  \"max_queue_depth\": {},\n  \"queue_us\": {},\n  \"solve_us\": {},\n  \"total_us\": {}\n}}",
            self.submitted,
            self.completed,
            self.rejected_overload,
            self.rejected_deadline,
            self.errors,
            self.cache_hits,
            self.setup_hits,
            self.full_misses,
            self.cache_hit_rate(),
            self.cache_entries,
            self.cache_poisoned,
            self.setup_entries,
            self.setup_builds,
            self.batches,
            self.shard_fallbacks,
            shards.join(", "),
            self.mean_batch,
            hist.join(", "),
            levels.join(", "),
            self.queue_depth,
            self.max_queue_depth,
            self.queue.to_json(),
            self.solve.to_json(),
            self.total.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_hist_percentiles_are_monotone() {
        let h = LatencyHist::default();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record(Duration::from_micros(us));
        }
        let q = h.snapshot();
        assert_eq!(q.count, 10);
        assert!(q.p50_us <= q.p90_us && q.p90_us <= q.p99_us);
        assert!(q.p99_us <= q.max_us as f64);
        assert_eq!(q.max_us, 100_000);
        assert!(q.mean_us > 0.0);
    }

    #[test]
    fn batch_hist_counts_and_mean() {
        let b = BatchHist::default();
        b.record(1);
        b.record(1);
        b.record(16);
        let (hist, mean) = b.snapshot();
        assert_eq!(hist, vec![(1, 2), (16, 1)]);
        assert!((mean - 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_json_renders() {
        let m = Metrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.batch_hist.record(2);
        m.queue_us.record(Duration::from_micros(42));
        m.shard_fallbacks.fetch_add(2, Ordering::Relaxed);
        *m.factor_levels.lock() = vec![LevelStats { level: 1, nodes: 4, seconds: 0.25 }];
        let s = m.snapshot(1, 2, 0, 1, 1, Vec::new());
        assert_eq!(s.factor_levels.len(), 1);
        let j = s.to_json();
        assert!(j.contains("\"submitted\": 3"));
        assert!(j.contains("\"factor_levels\": [{\"level\": 1, \"nodes\": 4, \"seconds\": 0.25"));
        assert!(j.contains("\"batch_hist\": [[2, 1]]"));
        assert!(j.contains("\"cache_entries\": 2"));
        assert!(j.contains("\"setup_entries\": 1"));
        assert!(j.contains("\"setup_builds\": 1"));
        assert!(j.contains("\"shard_fallbacks\": 2"));
        assert!(j.contains("\"shards\": []"), "unsharded snapshot renders an empty lane list");
    }

    #[test]
    fn split_cache_counters_render_and_sum() {
        let m = Metrics::default();
        m.cache_hits.fetch_add(5, Ordering::Relaxed);
        m.setup_hits.fetch_add(3, Ordering::Relaxed);
        m.full_misses.fetch_add(1, Ordering::Relaxed);
        m.cache_misses.fetch_add(4, Ordering::Relaxed);
        let s = m.snapshot(0, 4, 0, 1, 1, Vec::new());
        assert_eq!(s.setup_hits + s.full_misses, s.cache_misses);
        assert!((s.cache_hit_rate() - 5.0 / 9.0).abs() < 1e-12);
        let j = s.to_json();
        assert!(j.contains("\"factor_hits\": 5"));
        assert!(j.contains("\"setup_hits\": 3"));
        assert!(j.contains("\"full_misses\": 1"));
    }
}
