//! Retrieval serving benchmark: archive build, cached range-query
//! serving, and gap re-request planning over the golden seed-42 run.
//!
//! The driver rebuilds the basestation archive from the same
//! `quick-indoor` 120 s run that `tests/determinism.rs` pins to its
//! golden digest, generates a committed query workload from the
//! archive's own span (every draw derives from a SplitMix64 stream
//! seeded by the run seed), and serves it twice — once through the LRU
//! query cache, once uncached — on the requested worker pool. The two
//! passes must produce bit-identical results; only the cached pass's
//! statistics enter the report.
//!
//! [`RetrievalReport`] carries **no wall-clock data**: counts, digests,
//! and cache ratios only. The same binary therefore writes a
//! byte-identical `BENCH_retrieval.json` at any `--jobs` value, which CI
//! exploits by regenerating it at `--jobs 1` and `--jobs 2`, diffing the
//! two, and diffing the result against the committed artifact.
//! Throughput and latency percentiles are printed to the console only.

use enviromic::archive::{find_gaps, serve_queries, ArchiveStore, RangeQuery, ServeOutcome};
use enviromic::harness::run_scenario_with_faults;
use enviromic::observe::{archive_run, rerequest_plan};
use enviromic::sweep::ScenarioSpec;
use enviromic_core::RerequestPlan;
use enviromic_sim::rng::split_mix64;
use enviromic_telemetry::{Registry, TelemetryReport};
use enviromic_types::{EventId, NodeId, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The run the archive is built from: the golden-digest point.
pub const SCENARIO: &str = "quick-indoor";
/// Seed of the golden run (and of the workload stream derived from it).
pub const SEED: u64 = 42;
/// Scenario duration in seconds.
pub const DURATION_SECS: f64 = 120.0;
/// Coverage holes wider than this are gaps worth re-requesting.
pub const GAP_TOLERANCE_SECS: f64 = 0.5;
/// Gaps closer than this ride the same spanning-tree query flood.
pub const GAP_SLACK_SECS: f64 = 1.0;

/// Knobs of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RetrievalOptions {
    /// Queries in the generated workload.
    pub queries: usize,
    /// LRU capacity (distinct queries) for the cached pass.
    pub cache_capacity: usize,
    /// Worker threads serving the workload.
    pub jobs: usize,
}

impl Default for RetrievalOptions {
    fn default() -> Self {
        RetrievalOptions {
            queries: 600,
            cache_capacity: 256,
            jobs: 1,
        }
    }
}

/// Archive shape after ingesting the run (committed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchiveSummary {
    /// Distinct stored intervals (deduplicated).
    pub records: u64,
    /// Redundant copies dropped during ingest.
    pub duplicate_copies: u64,
    /// Distinct origin nodes with archived audio.
    pub origins: u64,
    /// Archived span, first `t0` to last `t1`, seconds.
    pub span_secs: f64,
}

/// Workload shape (committed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    /// Total queries served.
    pub queries: u64,
    /// Distinct query keys among them.
    pub distinct: u64,
    /// LRU capacity used for the cached pass.
    pub cache_capacity: u64,
}

/// Cache behaviour of the cached pass (committed — decisions are fixed
/// serially in workload order, so these never depend on `--jobs`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSummary {
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that executed an index scan.
    pub misses: u64,
    /// LRU evictions along the way.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_ratio: f64,
}

/// Result totals and the workload determinism fingerprint (committed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultsSummary {
    /// Records matched across the workload (with repeats).
    pub matched: u64,
    /// Payload bytes those matches cover (with repeats).
    pub bytes: u64,
    /// Order-sensitive FNV-1a digest over per-query result digests.
    pub digest: String,
}

/// Gap detection and batched re-request planning (committed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RerequestSummary {
    /// Coverage holes wider than [`GAP_TOLERANCE_SECS`].
    pub gaps: u64,
    /// Spanning-tree query floods the plan batches them into.
    pub batches: u64,
    /// Total missing audio the plan re-requests, seconds.
    pub missing_secs: f64,
}

/// The committed benchmark artifact. Contains no wall-clock figures, so
/// it is byte-identical across worker counts and across hosts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievalReport {
    /// Scenario label of the archived run.
    pub scenario: String,
    /// Seed of the archived run and the workload stream.
    pub seed: u64,
    /// Scenario duration, seconds.
    pub duration_secs: f64,
    /// Archive shape after ingest.
    pub archive: ArchiveSummary,
    /// Query workload shape.
    pub workload: WorkloadSummary,
    /// Cache totals of the cached pass.
    pub cache: CacheSummary,
    /// Result totals and digest.
    pub results: ResultsSummary,
    /// Gap re-request plan shape.
    pub rerequest: RerequestSummary,
}

impl RetrievalReport {
    /// Serializes to the committed pretty-JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_value(self).to_json_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed JSON or mismatched shape.
    pub fn from_json(text: &str) -> Result<RetrievalReport, String> {
        let value = serde::Value::from_json(text).map_err(|e| e.to_string())?;
        serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
    }

    /// Console rendering of the committed figures.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "retrieval: {} seed {} ({:.0}s)\n",
            self.scenario, self.seed, self.duration_secs
        ));
        s.push_str(&format!(
            "  archive   {} records ({} duplicate copies dropped), {} origins, {:.1}s span\n",
            self.archive.records,
            self.archive.duplicate_copies,
            self.archive.origins,
            self.archive.span_secs
        ));
        s.push_str(&format!(
            "  workload  {} queries ({} distinct), cache capacity {}\n",
            self.workload.queries, self.workload.distinct, self.workload.cache_capacity
        ));
        s.push_str(&format!(
            "  cache     {} hits / {} misses / {} evictions ({:.1}% hit ratio)\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_ratio * 100.0
        ));
        s.push_str(&format!(
            "  results   {} records matched, {} bytes, digest {}\n",
            self.results.matched, self.results.bytes, self.results.digest
        ));
        s.push_str(&format!(
            "  rerequest {} gaps -> {} batched query floods ({:.2}s missing)\n",
            self.rerequest.gaps, self.rerequest.batches, self.rerequest.missing_secs
        ));
        s
    }
}

/// Everything one invocation produces: the committed report plus the
/// wall-clock figures that stay on the console.
#[derive(Debug)]
pub struct RetrievalRun {
    /// The committed artifact.
    pub report: RetrievalReport,
    /// The cached serving pass (wall-clock and latency inside).
    pub outcome: ServeOutcome,
    /// Digest of the uncached pass — must equal the cached digest.
    pub uncached_digest: u64,
    /// Seconds spent simulating the run and building the archive.
    pub build_secs: f64,
    /// `archive.*` telemetry recorded during the cached pass.
    pub telemetry: TelemetryReport,
    /// The batched re-request plan derived from the archive's gaps.
    pub plan: RerequestPlan,
}

impl RetrievalRun {
    /// True when the cached and uncached passes produced bit-identical
    /// results — the property CI relies on.
    #[must_use]
    pub fn cache_transparent(&self) -> bool {
        self.outcome.digest() == self.uncached_digest
    }
}

/// Generates the deterministic query workload: window starts snap to a
/// coarse grid (so the stream revisits keys and the cache has something
/// to do), lengths come from a three-point set, and every eighth query
/// filters by origin or event ID. All randomness derives from
/// `SEED`, so the workload — like everything else in the report — is a
/// pure function of the committed constants.
#[must_use]
pub fn build_workload(store: &ArchiveStore, n: usize) -> Vec<RangeQuery> {
    let Some((span0, span1)) = store.span() else {
        return Vec::new();
    };
    let span_j = span1.saturating_since(span0).as_jiffies().max(1);
    let origins: Vec<NodeId> = store.origins();
    let events: Vec<EventId> = store
        .records()
        .iter()
        .filter_map(|r| r.event)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    const GRID: u64 = 48;
    let lengths = [span_j / 24, span_j / 8, span_j / 3];
    let mut state = SEED ^ 0x5DEE_CE66_D1CE_5EED;
    (0..n)
        .map(|_| {
            let r = split_mix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let start = span0 + SimDuration::from_jiffies((r % GRID) * span_j / GRID);
            let len = lengths[((r >> 8) % 3) as usize].max(1);
            let (origin, event) = match (r >> 16) % 8 {
                6 if !origins.is_empty() => {
                    (Some(origins[((r >> 24) as usize) % origins.len()]), None)
                }
                7 if !events.is_empty() => {
                    (None, Some(events[((r >> 24) as usize) % events.len()]))
                }
                _ => (None, None),
            };
            RangeQuery {
                t0: start,
                t1: start + SimDuration::from_jiffies(len),
                origin,
                event,
            }
        })
        .collect()
}

/// Simulates the golden run, freezes it into an [`ArchiveStore`], and
/// returns it with the build time.
#[must_use]
pub fn build_archive() -> (ArchiveStore, f64) {
    let started = std::time::Instant::now();
    let input = ScenarioSpec::quick_indoor(DURATION_SECS).build(SEED);
    let run = run_scenario_with_faults(
        input.scenario,
        &input.node_cfg,
        input.world_cfg,
        input.drain_secs,
        &input.faults,
    );
    (archive_run(&run), started.elapsed().as_secs_f64())
}

/// Runs the whole benchmark: build the archive, generate the workload,
/// serve it cached and uncached, detect gaps, and assemble the report.
#[must_use]
pub fn run_retrieval(opts: &RetrievalOptions) -> RetrievalRun {
    let (store, build_secs) = build_archive();
    run_retrieval_on(&store, build_secs, opts)
}

/// [`run_retrieval`] with a pre-built archive (lets tests and multi-pass
/// callers simulate the run once).
#[must_use]
pub fn run_retrieval_on(
    store: &ArchiveStore,
    build_secs: f64,
    opts: &RetrievalOptions,
) -> RetrievalRun {
    let queries = build_workload(store, opts.queries);
    let distinct = queries.iter().collect::<BTreeSet<_>>().len() as u64;

    let registry = Registry::new();
    let outcome = serve_queries(
        store,
        &queries,
        opts.cache_capacity,
        opts.jobs,
        Some(&registry),
    );
    let uncached = serve_queries(store, &queries, 0, opts.jobs, None);

    let tolerance = SimDuration::from_secs_f64(GAP_TOLERANCE_SECS);
    let gaps = find_gaps(store, tolerance);
    let plan = rerequest_plan(store, tolerance, SimDuration::from_secs_f64(GAP_SLACK_SECS));
    let missing_secs: f64 = gaps.iter().map(|g| g.span().as_secs_f64()).sum();

    let ingest = store.ingest_stats();
    let span_secs = store
        .span()
        .map_or(0.0, |(a, b)| b.saturating_since(a).as_secs_f64());
    let report = RetrievalReport {
        scenario: SCENARIO.into(),
        seed: SEED,
        duration_secs: DURATION_SECS,
        archive: ArchiveSummary {
            records: store.len() as u64,
            duplicate_copies: ingest.duplicates,
            origins: store.origins().len() as u64,
            span_secs,
        },
        workload: WorkloadSummary {
            queries: queries.len() as u64,
            distinct,
            cache_capacity: opts.cache_capacity as u64,
        },
        cache: CacheSummary {
            hits: outcome.stats.hits,
            misses: outcome.stats.misses,
            evictions: outcome.stats.evictions,
            hit_ratio: outcome.stats.hit_ratio(),
        },
        results: ResultsSummary {
            matched: outcome.matched_total(),
            bytes: outcome.results.iter().map(|r| r.bytes).sum(),
            digest: format!("0x{:016x}", outcome.digest()),
        },
        rerequest: RerequestSummary {
            gaps: gaps.len() as u64,
            batches: plan.len() as u64,
            missing_secs,
        },
    };
    RetrievalRun {
        report,
        outcome,
        uncached_digest: uncached.digest(),
        build_secs,
        telemetry: registry.report(),
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> RetrievalRun {
        let opts = RetrievalOptions {
            queries: 120,
            cache_capacity: 64,
            jobs: 2,
        };
        run_retrieval(&opts)
    }

    #[test]
    fn report_round_trips_and_caches_transparently() {
        let run = small_run();
        assert!(run.cache_transparent(), "cache must not change results");
        assert!(run.report.cache.hits > 0, "grid workload revisits keys");
        assert!(run.report.archive.records > 0);
        let back = RetrievalReport::from_json(&run.report.to_json()).expect("parses");
        assert_eq!(back, run.report);
    }

    #[test]
    fn job_count_leaves_the_report_byte_identical() {
        let (store, _) = build_archive();
        let base = RetrievalOptions {
            queries: 120,
            cache_capacity: 64,
            jobs: 1,
        };
        let one = run_retrieval_on(&store, 0.0, &base);
        let four = run_retrieval_on(&store, 0.0, &RetrievalOptions { jobs: 4, ..base });
        assert_eq!(one.report.to_json(), four.report.to_json());
        let digests = |run: &RetrievalRun| -> Vec<u64> {
            run.outcome.results.iter().map(|r| r.digest).collect()
        };
        assert_eq!(digests(&one), digests(&four));
    }

    #[test]
    fn workload_is_deterministic_and_filtered() {
        let (store, _) = build_archive();
        let a = build_workload(&store, 200);
        let b = build_workload(&store, 200);
        assert_eq!(a, b);
        assert!(a.iter().any(|q| q.origin.is_some()), "origin filters drawn");
        assert!(a.iter().all(|q| q.t1 > q.t0));
    }

    #[test]
    fn telemetry_mirrors_cache_summary() {
        let run = small_run();
        assert_eq!(
            run.telemetry.counter("archive.cache.hits"),
            Some(run.report.cache.hits)
        );
        assert_eq!(
            run.telemetry.counter("archive.query.served"),
            Some(run.report.workload.queries)
        );
    }
}
