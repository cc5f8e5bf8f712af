//! Concurrent query serving on a worker pool.
//!
//! The cache misses run on the workspace's one ordered pool,
//! [`map_ordered`], which returns results in input order. Determinism at
//! any worker count comes from a strict phase split:
//!
//! 1. **Plan (serial):** the LRU cache is probed in workload order on
//!    the coordinator, fixing every hit/miss/eviction decision and the
//!    `archive.cache.*` counters before any worker starts.
//! 2. **Execute (parallel):** every miss runs [`ArchiveStore::query`]
//!    against the shared immutable store. Queries are pure functions of
//!    the store, so scheduling affects wall-clock only.
//! 3. **Fill (serial):** hits copy the result of an earlier execution of
//!    the same query.
//!
//! Only wall-clock figures (throughput, latency percentiles) vary across
//! worker counts; they stay on [`ServeOutcome`] and never enter the
//! committed artifact or the registry.

use crate::cache::{CacheDecision, CacheStats, QueryCache};
use crate::store::{ArchiveStore, QueryResult, RangeQuery};
use enviromic_telemetry::Registry;
use enviromic_types::{map_ordered, pool_size, Fnv1a};
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock latency percentiles over the executed scans. Informational
/// only — never part of a committed, diffed artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Scans measured.
    pub count: u64,
    /// Median scan latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile scan latency, microseconds.
    pub p99_us: f64,
    /// Slowest scan, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<f64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            max_us: *samples.last().expect("non-empty"),
        }
    }
}

/// The outcome of serving one query workload.
#[derive(Debug)]
pub struct ServeOutcome {
    /// One result per query, in workload order.
    pub results: Vec<QueryResult>,
    /// Cache totals, fixed in workload order.
    pub stats: CacheStats,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole workload.
    pub wall_secs: f64,
    /// Latency percentiles over the executed (miss) scans.
    pub latency: LatencySummary,
}

impl ServeOutcome {
    /// Order-sensitive FNV-1a digest over the per-query result digests —
    /// the workload's determinism fingerprint.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.results {
            h.write_u64_le(r.digest);
        }
        h.finish()
    }

    /// Total records matched across the workload.
    #[must_use]
    pub fn matched_total(&self) -> u64 {
        self.results.iter().map(|r| r.len() as u64).sum()
    }

    /// Queries served per wall-clock second.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.results.len() as f64 / self.wall_secs.max(1e-9)
        }
    }
}

/// Serves `queries` against `store` with an LRU cache of
/// `cache_capacity` distinct queries on a pool of `workers` threads.
/// Results, cache stats, and digests are bit-identical at any worker
/// count; `registry` (when given) receives the deterministic
/// `archive.cache.*` counters and `archive.query.*` figures on the
/// coordinator thread.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn serve_queries(
    store: &ArchiveStore,
    queries: &[RangeQuery],
    cache_capacity: usize,
    workers: usize,
    registry: Option<&Registry>,
) -> ServeOutcome {
    let started = Instant::now();

    // Phase 1: fix every cache decision in workload order. `source[i]`
    // is the position in `misses` of the scan that answers query `i`.
    let mut cache = QueryCache::new(cache_capacity);
    let mut source: Vec<usize> = Vec::with_capacity(queries.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut last_miss: BTreeMap<RangeQuery, usize> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        match cache.probe(q) {
            CacheDecision::Hit => {
                source.push(*last_miss.get(q).expect("a hit follows a miss for its key"));
            }
            CacheDecision::Miss { .. } => {
                source.push(misses.len());
                last_miss.insert(*q, misses.len());
                misses.push(i);
            }
        }
    }
    let stats = cache.stats();

    // Phase 2: execute the misses on the pool.
    let workers = pool_size(workers, misses.len());
    let scans = map_ordered(&misses, workers, |&i| {
        let t = Instant::now();
        let result = store.query(&queries[i]);
        (result, t.elapsed().as_secs_f64() * 1e6)
    });

    // Phase 3: assemble in workload order; hits copy their source scan.
    let latencies = scans.iter().map(|&(_, us)| us).collect();
    let results: Vec<QueryResult> = source.iter().map(|&m| scans[m].0.clone()).collect();

    let outcome = ServeOutcome {
        results,
        stats,
        workers,
        wall_secs: started.elapsed().as_secs_f64(),
        latency: LatencySummary::from_samples(latencies),
    };
    if let Some(reg) = registry {
        reg.counter("archive.cache.hits").add(stats.hits);
        reg.counter("archive.cache.misses").add(stats.misses);
        reg.counter("archive.cache.evictions").add(stats.evictions);
        reg.counter("archive.query.served")
            .add(outcome.results.len() as u64);
        reg.counter("archive.query.executed").add(stats.misses);
        let results_hist = reg.histogram("archive.query.results");
        for r in &outcome.results {
            #[allow(clippy::cast_precision_loss)]
            results_hist.observe(r.len() as f64);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ArchiveBuilder, ArchiveRecord};
    use enviromic_types::{NodeId, SimDuration, SimTime};

    fn sample_store() -> ArchiveStore {
        let mut b = ArchiveBuilder::new();
        for origin in 0..8u32 {
            for k in 0..50u64 {
                #[allow(clippy::cast_lossless)]
                let t0 = SimTime::from_jiffies(k * 20_000 + u64::from(origin) * 137);
                b.ingest(ArchiveRecord {
                    origin: NodeId(origin),
                    event: None,
                    t0,
                    t1: t0 + SimDuration::from_jiffies(18_000),
                    bytes: 232,
                    holder: NodeId(origin),
                });
            }
        }
        b.build()
    }

    fn workload(n: usize) -> Vec<RangeQuery> {
        (0..n)
            .map(|i| {
                let base = (i as u64 % 17) * 40_000;
                RangeQuery {
                    t0: SimTime::from_jiffies(base),
                    t1: SimTime::from_jiffies(base + 90_000),
                    origin: (i % 3 == 0).then_some(NodeId(i as u32 % 8)),
                    event: None,
                }
            })
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_results_or_stats() {
        let store = sample_store();
        let queries = workload(120);
        let one = serve_queries(&store, &queries, 16, 1, None);
        let four = serve_queries(&store, &queries, 16, 4, None);
        assert_eq!(one.results, four.results);
        assert_eq!(one.stats, four.stats);
        assert_eq!(one.digest(), four.digest());
    }

    #[test]
    fn cache_on_and_off_agree_on_results() {
        let store = sample_store();
        let queries = workload(100);
        let cached = serve_queries(&store, &queries, 64, 3, None);
        let uncached = serve_queries(&store, &queries, 0, 3, None);
        assert_eq!(cached.results, uncached.results);
        assert_eq!(cached.digest(), uncached.digest());
        assert!(cached.stats.hits > 0, "repeats in the workload hit");
        assert_eq!(uncached.stats.hits, 0);
        assert_eq!(uncached.stats.misses as usize, queries.len());
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let store = sample_store();
        let queries = workload(60);
        let reg = Registry::new();
        let out = serve_queries(&store, &queries, 8, 2, Some(&reg));
        let report = reg.report();
        assert_eq!(report.counter("archive.cache.hits"), Some(out.stats.hits));
        assert_eq!(
            report.counter("archive.cache.misses"),
            Some(out.stats.misses)
        );
        assert_eq!(
            report.counter("archive.cache.evictions"),
            Some(out.stats.evictions)
        );
        assert_eq!(report.counter("archive.query.served"), Some(60));
        assert_eq!(
            report.histogram("archive.query.results").map(|h| h.count),
            Some(60)
        );
    }

    #[test]
    fn empty_workload_serves_nothing() {
        let store = sample_store();
        let out = serve_queries(&store, &[], 8, 4, None);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, CacheStats::default());
        assert_eq!(out.matched_total(), 0);
        assert_eq!(out.latency, LatencySummary::default());
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let s = LatencySummary::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_us, 3.0);
        assert!(s.p99_us <= s.max_us);
        assert_eq!(s.max_us, 5.0);
    }
}
