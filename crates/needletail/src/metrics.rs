//! Operation counters.
//!
//! Every engine operation feeds a shared [`Metrics`] instance, which the
//! session, the server's stats and the stack benchmark read. The experiment
//! harness's I/O cost model (`rapidviz_bench::DiskModel`) prices sample
//! and scan counts as deterministic I/O / CPU seconds. Counters are atomic
//! so handles can share one sink without locking.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters for engine activity.
#[derive(Debug, Default)]
pub struct Metrics {
    random_samples: AtomicU64,
    rows_scanned: AtomicU64,
    index_probes: AtomicU64,
    faulted_reads: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Random tuple retrievals (each costs one random block read).
    pub random_samples: u64,
    /// Rows read by sequential scans.
    pub rows_scanned: u64,
    /// In-memory bitmap index probes (rank/select/membership).
    pub index_probes: u64,
    /// Sampled-row reads dropped by an installed
    /// [`FaultInjector`](crate::fault::FaultInjector). The read was
    /// attempted (and charged as a random sample) but its value was never
    /// delivered. Always 0 without an injector.
    pub faulted_reads: u64,
    /// Always 0: the engine has no predicate-bitmap cache (the plan cache
    /// is keyed by the canonical predicate). Kept so readers of this
    /// field keep compiling.
    pub predicate_cache_hits: u64,
    /// Always 0, like
    /// [`predicate_cache_hits`](MetricsSnapshot::predicate_cache_hits).
    pub predicate_cache_misses: u64,
    /// Group-plan LRU hits: planning handed back ready `(label, rows)`
    /// sets with no predicate evaluation or per-group intersection.
    pub plan_cache_hits: u64,
    /// Group-plan LRU misses (the plan was built cold and cached).
    pub plan_cache_misses: u64,
    /// Always 0: multi-attribute group-bys plan in one pass over the
    /// qualifying rows and keep no composite index. Kept so readers of
    /// this field keep compiling.
    pub composite_cache_hits: u64,
    /// Always 0, like
    /// [`composite_cache_hits`](MetricsSnapshot::composite_cache_hits).
    pub composite_cache_misses: u64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` random tuple retrievals.
    pub fn add_random_samples(&self, n: u64) {
        self.random_samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` sequentially scanned rows.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` index probes.
    pub fn add_index_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` sampled reads dropped by a fault injector.
    pub fn add_faulted_reads(&self, n: u64) {
        self.faulted_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one group-plan cache lookup (`hit` says which way).
    pub fn add_plan_cache_lookup(&self, hit: bool) {
        if hit {
            self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            random_samples: self.random_samples.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            faulted_reads: self.faulted_reads.load(Ordering::Relaxed),
            predicate_cache_hits: 0,
            predicate_cache_misses: 0,
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            composite_cache_hits: 0,
            composite_cache_misses: 0,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.random_samples.store(0, Ordering::Relaxed);
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.index_probes.store(0, Ordering::Relaxed);
        self.faulted_reads.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_random_samples(3);
        m.add_random_samples(2);
        m.add_rows_scanned(100);
        m.add_index_probes(7);
        let s = m.snapshot();
        assert_eq!(s.random_samples, 5);
        assert_eq!(s.rows_scanned, 100);
        assert_eq!(s.index_probes, 7);
    }

    #[test]
    fn cache_lookup_counters_split_by_outcome() {
        let m = Metrics::new();
        m.add_plan_cache_lookup(false);
        m.add_plan_cache_lookup(true);
        let s = m.snapshot();
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (1, 1));
        assert_eq!((s.composite_cache_hits, s.composite_cache_misses), (0, 0));
    }

    #[test]
    fn reset_zeroes() {
        let m = Metrics::new();
        m.add_random_samples(9);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add_random_samples(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().random_samples, 4000);
    }
}
