//! The pipeline's observability surface: lock-light counters, gauges and
//! per-backend latency histograms, snapshotted on demand.
//!
//! Every [`SolvePipeline`](crate::SolvePipeline) owns a [`MetricsRegistry`];
//! the registry is cheaply clonable (it is an `Arc` around atomics) so the
//! service's worker threads and the wire server's `METRICS` handler can all
//! observe one instance. A [`MetricsSnapshot`] is a plain value: safe to
//! compare, or to ship over the wire as a `METRICS` frame.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Number of log2-microsecond latency buckets per backend: bucket `i` counts
/// solves with `2^i ≤ latency_us < 2^(i+1)` (bucket 0 also absorbs sub-µs
/// solves, the last bucket absorbs everything ≥ ~9 hours).
pub const LATENCY_BUCKETS: usize = 16;

/// Latency distribution of one backend, in log2-µs buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BackendLatency {
    /// Number of dispatches recorded.
    pub count: u64,
    /// Total wall time across dispatches, in microseconds.
    pub total_us: u64,
    /// The slowest dispatch, in microseconds.
    pub max_us: u64,
    /// log2-µs histogram (see [`LATENCY_BUCKETS`]).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl BackendLatency {
    fn record(&mut self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
        let bucket = (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean latency in microseconds (0 when nothing was recorded).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// Everything the registry counts.
#[derive(Debug, Default)]
struct MetricsInner {
    dispatches: AtomicU64,
    pre_vars_removed: AtomicU64,
    pre_clauses_removed: AtomicU64,
    pre_solved: AtomicU64,
    budget_samples_spent: AtomicU64,
    budget_checks_spent: AtomicU64,
    clauses_exported: AtomicU64,
    clauses_imported: AtomicU64,
    latencies: Mutex<BTreeMap<String, BackendLatency>>,
}

/// A cheaply clonable registry of pipeline counters and per-backend latency
/// histograms. All mutation is through `&self`; snapshots are consistent
/// enough for observability (counters are read individually, not atomically
/// as a group).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one backend dispatch and its wall time.
    pub fn record_dispatch(&self, backend: &str, latency: Duration) {
        self.inner.dispatches.fetch_add(1, Ordering::Relaxed);
        let mut latencies = self
            .inner
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        latencies
            .entry(backend.to_string())
            .or_default()
            .record(latency);
    }

    /// Records one preprocessing run: how many variables and clauses it
    /// removed, and whether it solved the instance outright.
    pub fn record_preprocess(&self, vars_removed: u64, clauses_removed: u64, solved: bool) {
        self.inner
            .pre_vars_removed
            .fetch_add(vars_removed, Ordering::Relaxed);
        self.inner
            .pre_clauses_removed
            .fetch_add(clauses_removed, Ordering::Relaxed);
        if solved {
            self.inner.pre_solved.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records budget spend observed on completed dispatches.
    pub fn record_budget_spend(&self, samples: u64, checks: u64) {
        self.inner
            .budget_samples_spent
            .fetch_add(samples, Ordering::Relaxed);
        self.inner
            .budget_checks_spent
            .fetch_add(checks, Ordering::Relaxed);
    }

    /// Records clause-sharing traffic observed on a completed dispatch (the
    /// cooperative portfolio's pool exports and imports).
    pub fn record_sharing(&self, exported: u64, imported: u64) {
        self.inner
            .clauses_exported
            .fetch_add(exported, Ordering::Relaxed);
        self.inner
            .clauses_imported
            .fetch_add(imported, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of every counter and histogram. The
    /// queue and cache gauges are zero here; the owning pipeline fills in
    /// the cache's, and front ends that own a queue (the solve service) the
    /// queue's.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latencies = self
            .inner
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        MetricsSnapshot {
            dispatches: self.inner.dispatches.load(Ordering::Relaxed),
            pre_vars_removed: self.inner.pre_vars_removed.load(Ordering::Relaxed),
            pre_clauses_removed: self.inner.pre_clauses_removed.load(Ordering::Relaxed),
            pre_solved: self.inner.pre_solved.load(Ordering::Relaxed),
            budget_samples_spent: self.inner.budget_samples_spent.load(Ordering::Relaxed),
            budget_checks_spent: self.inner.budget_checks_spent.load(Ordering::Relaxed),
            clauses_exported: self.inner.clauses_exported.load(Ordering::Relaxed),
            clauses_imported: self.inner.clauses_imported.load(Ordering::Relaxed),
            backends: latencies,
            ..MetricsSnapshot::default()
        }
    }
}

/// A point-in-time view of pipeline metrics: counters, gauges (filled by the
/// owning front end) and per-backend latency histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Jobs currently waiting in the owning service's queue.
    pub queue_depth: u64,
    /// Waiting jobs at high priority.
    pub backlog_high: u64,
    /// Waiting jobs at normal priority.
    pub backlog_normal: u64,
    /// Waiting jobs at low priority.
    pub backlog_low: u64,
    /// Backend dispatches (solves that actually ran a backend).
    pub dispatches: u64,
    /// Cache hits (submissions answered with zero dispatch).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache entries evicted to make room.
    pub cache_evictions: u64,
    /// Cache insertions accepted.
    pub cache_insertions: u64,
    /// Entries currently resident in the cache.
    pub cache_entries: u64,
    /// Variables removed by preprocessing, summed over submissions.
    pub pre_vars_removed: u64,
    /// Clauses removed by preprocessing, summed over submissions.
    pub pre_clauses_removed: u64,
    /// Submissions preprocessing solved outright (no dispatch, no cache).
    pub pre_solved: u64,
    /// Noise samples charged by completed dispatches.
    pub budget_samples_spent: u64,
    /// Coprocessor checks charged by completed dispatches.
    pub budget_checks_spent: u64,
    /// Clauses exported into cooperative-portfolio pools, summed over
    /// completed dispatches.
    pub clauses_exported: u64,
    /// Clauses imported from cooperative-portfolio pools, summed over
    /// completed dispatches.
    pub clauses_imported: u64,
    /// Per-backend latency histograms, keyed by backend name.
    pub backends: BTreeMap<String, BackendLatency>,
}

impl MetricsSnapshot {
    /// Cache hit rate in [0, 1]; 0 when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let metrics = MetricsRegistry::new();
        metrics.record_preprocess(3, 2, false);
        metrics.record_preprocess(1, 1, true);
        metrics.record_budget_spend(100, 4);
        metrics.record_sharing(12, 5);
        metrics.record_dispatch("cdcl", Duration::from_micros(900));
        metrics.record_dispatch("cdcl", Duration::from_micros(100));
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.pre_vars_removed, 4);
        assert_eq!(snapshot.pre_clauses_removed, 3);
        assert_eq!(snapshot.pre_solved, 1);
        assert_eq!(snapshot.budget_samples_spent, 100);
        assert_eq!(snapshot.budget_checks_spent, 4);
        assert_eq!(snapshot.clauses_exported, 12);
        assert_eq!(snapshot.clauses_imported, 5);
        assert_eq!(snapshot.dispatches, 2);
        let cdcl = &snapshot.backends["cdcl"];
        assert_eq!(cdcl.count, 2);
        assert_eq!(cdcl.total_us, 1000);
        assert_eq!(cdcl.max_us, 900);
        assert_eq!(cdcl.mean_us(), 500);
        assert_eq!(cdcl.buckets.iter().sum::<u64>(), 2);
        // The cache gauges are the owning pipeline's to fill in.
        assert_eq!(snapshot.cache_hits, 0);
        let cached = MetricsSnapshot {
            cache_hits: 1,
            cache_misses: 2,
            ..snapshot
        };
        assert!((cached.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_one_instance() {
        let metrics = MetricsRegistry::new();
        let clone = metrics.clone();
        clone.record_dispatch("cdcl", Duration::from_micros(5));
        assert_eq!(metrics.snapshot().dispatches, 1);
    }
}
