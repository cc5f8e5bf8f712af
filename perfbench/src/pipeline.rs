//! The benchmark's workloads and one pass of the pipeline they share:
//! set up a world, simulate it, move the recorded audio to the
//! basestation, build the archive and its re-request plan, serve queries,
//! and digest the trace.
//!
//! Every call into the program is timed from here, around the program's
//! public functions; nothing inside the program is instrumented.

use crate::report::median;
use crate::span;
use crate::spans::Tracer;
use crate::sys;
use enviromic::archive::{
    find_gaps, serve_queries, ArchiveBuilder, ArchiveRecord, ArchiveStore, RangeQuery,
};
use enviromic::core::{DataMule, EnviroMicNode, MuleConfig, RetrievalMode};
use enviromic::harness::build_world;
use enviromic::observe::rerequest_plan;
use enviromic::sim::{Trace, TraceEvent, World};
use enviromic::sweep::ScenarioSpec;
use enviromic::types::audio::bytes_to_chunks_ceil;
use enviromic::types::{NodeId, Position, SimDuration, SimTime};
use enviromic::workloads::{indoor_scenario, IndoorParams};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Names of the registered workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["city-100k", "indoor-pipeline", "archive-serve"];

/// Coverage holes wider than this are gaps worth re-requesting.
const GAP_TOLERANCE_SECS: f64 = 0.5;
/// Gaps closer than this ride the same spanning-tree query flood.
const GAP_SLACK_SECS: f64 = 1.0;
/// LRU capacity of the serving cache, in distinct queries.
const CACHE_CAPACITY: usize = 256;
/// Ledger passes, archive build and serving repeat until they have run
/// this long in an iteration. The report takes the median over the passes
/// of all iterations of a run, so these samples are spread over the whole
/// run rather than bunched where one iteration ran.
const MIN_PHASE_SECS: f64 = 0.5;
/// Upper bound on those repetitions.
const MAX_PASSES: usize = 1_000;
/// Served queries whose results are re-checked against the full scan.
const ORACLE_SAMPLES: usize = 64;
/// Events in the paper's 4400 s indoor trace "on average" (§IV-B); the
/// indoor workloads hold exactly this many.
const INDOOR_EVENTS: usize = 220;
/// Indoor worlds a run cycles through. Odd, so that traced runs, which
/// trace every other iteration, trace and skip each world equally often.
const INDOOR_WORLDS: usize = 5;
/// Query window lengths, in archived records after the window start:
/// about 10 s, 60 s and 600 s of indoor audio.
const WINDOW_RECORDS: [usize; 3] = [32, 192, 1_920];
/// Distinct window starts a query stream draws from, with skewed
/// popularity; enough that the distinct keys overflow the cache.
const START_KEYS: usize = 300;
/// Where the data mule joins: beside the testbed's corner mote, so every
/// other mote's audio must relay over the spanning tree.
const MULE_POSITION: Position = Position::new(-2.0, 0.0);
/// Per-round budget of the mule's spanning-tree query.
const MULE_ROUND_SECS: f64 = 40.0;
/// Quiet time after the mule's last round.
const MULE_TAIL_SECS: f64 = 10.0;

/// Which pipeline a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The city lamppost deployment; audio reaches the basestation by
    /// ledger replay.
    City,
    /// The indoor testbed with a data mule collecting over the radio.
    Indoor,
    /// The indoor storage ledger replayed as many deployment days into the
    /// archive, then a large query stream.
    ArchiveServe,
}

/// One workload's inputs. All randomness derives from the seed given to
/// [`run_iteration`].
#[derive(Debug, Clone)]
pub struct Workload {
    /// Registered name.
    pub name: &'static str,
    /// Pipeline variant.
    pub kind: Kind,
    /// Nodes in the deployment (city only; the indoor testbed has 48).
    pub nodes: usize,
    /// Simulated scenario length, seconds.
    pub sim_secs: f64,
    /// Spanning-tree rounds the data mule runs (indoor only).
    pub mule_rounds: u32,
    /// Distinct records the archive is built to hold (city and
    /// archive-serve): the run's storage ledger is repeated as consecutive
    /// time-shifted copies until about this many distinct records went
    /// in, so every seed builds an archive of one size whatever share of
    /// its ledger is duplicate copies of migrated chunks.
    pub archive_records: usize,
    /// Queries in the generated stream (city and archive-serve).
    pub queries: usize,
}

impl Workload {
    /// The registered workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        let base = Workload {
            name: NAMES[0],
            kind: Kind::City,
            nodes: 100_000,
            sim_secs: 10.0,
            mule_rounds: 0,
            archive_records: 320_000,
            queries: 4_000,
        };
        match name {
            "city-100k" => Some(base),
            "indoor-pipeline" => Some(Workload {
                name: NAMES[1],
                kind: Kind::Indoor,
                nodes: 48,
                sim_secs: 4400.0,
                mule_rounds: 6,
                queries: 0,
                ..base
            }),
            "archive-serve" => Some(Workload {
                name: NAMES[2],
                kind: Kind::ArchiveServe,
                nodes: 48,
                sim_secs: 4400.0,
                archive_records: 416_000,
                queries: 100_000,
                ..base
            }),
            _ => None,
        }
    }

    /// The seeds the scenarios and worlds of a run are built from;
    /// iteration `i` uses the `i % len`-th. City inputs use the run seed
    /// itself. An indoor trace is a Poisson process whose event count alone
    /// moves the run's cost by ±7 % between seeds, so the indoor workloads
    /// take the first [`INDOOR_WORLDS`] seeds of a stream derived from the
    /// run seed whose traces hold exactly [`INDOOR_EVENTS`] events: the
    /// Poisson trace conditioned on its count. Even then, where the events
    /// fall moves one world's cost by about a tenth between seeds; a run's
    /// medians over several worlds move less.
    #[must_use]
    pub fn input_seeds(&self, seed: u64) -> Vec<u64> {
        if self.kind == Kind::City {
            return vec![seed];
        }
        let params = IndoorParams {
            duration_secs: self.sim_secs,
            ..IndoorParams::default()
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let want = (INDOOR_EVENTS as f64 * self.sim_secs / 4400.0).round() as usize;
        let mut state = seed;
        let found: Vec<u64> = std::iter::once(seed)
            .chain(std::iter::repeat_with(|| splitmix(&mut state)))
            .take(100_000)
            .filter(|&s| indoor_scenario(&params, s).sources.len() == want)
            .take(INDOOR_WORLDS)
            .collect();
        if found.is_empty() {
            vec![seed]
        } else {
            found
        }
    }

    /// Query-serving threads: the large archive-serve stream runs on
    /// `min(2, nproc)` workers; the small city and indoor query sets run
    /// on one, where a second thread's start-up would be most of a pass.
    #[must_use]
    pub fn serve_workers(&self) -> usize {
        match self.kind {
            Kind::ArchiveServe => sys::nproc().min(2),
            Kind::City | Kind::Indoor => 1,
        }
    }

    fn spec(&self) -> ScenarioSpec {
        match self.kind {
            Kind::City => ScenarioSpec::city(self.nodes, self.sim_secs),
            Kind::Indoor | Kind::ArchiveServe => ScenarioSpec::quick_indoor(self.sim_secs),
        }
    }

    fn mule_config(&self, start: SimTime) -> MuleConfig {
        MuleConfig {
            mode: RetrievalMode::Tree,
            start_after: start.saturating_since(SimTime::ZERO),
            rounds: self.mule_rounds,
            round_timeout: SimDuration::from_secs_f64(MULE_ROUND_SECS),
            ..MuleConfig::default()
        }
    }
}

/// Wall time of each pipeline phase of one iteration, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// Scenario generation, world build, world start.
    pub setup: f64,
    /// The event loop through scenario end plus drain.
    pub simulate: f64,
    /// Moving recorded audio to the basestation: the mule's window over
    /// the radio, or one pass over the run's storage ledger.
    pub retrieve: f64,
    /// Archive ingest, freeze, and re-request planning (one pass).
    pub archive: f64,
    /// Query generation and one serving pass.
    pub serve: f64,
    /// Finishing the world, taking it apart into trace and telemetry, and
    /// the trace digest.
    pub output: f64,
}

impl Phases {
    /// Sum of the phases: the iteration's time without its checks.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.setup + self.simulate + self.retrieve + self.archive + self.serve + self.output
    }
}

/// Every pass of the phases that repeat within an iteration, seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Passes {
    /// Retrieval: the mule's one window, or each storage-ledger pass.
    pub retrieve: Vec<f64>,
    /// Each archive ingest, freeze and re-request planning pass.
    pub archive: Vec<f64>,
    /// Each `serve_queries` pass, query generation excluded.
    pub serve: Vec<f64>,
}

/// What one iteration measured, counted, and checked.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Phase wall times; a repeated phase counts as its median pass.
    pub phases: Phases,
    /// Wall time of every pass of the repeated phases.
    pub passes: Passes,
    /// Queries in one serving pass.
    pub queries: u64,
    /// Per-layer figures, keyed by `BENCHMARK.json` metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Deterministic work counters: identical for a seed on every run.
    pub counters: BTreeMap<&'static str, u64>,
    /// Operations the iteration performed that can fail.
    pub attempted: u64,
    /// Chunks stored on the motes that the mule did not retrieve.
    pub shortfall: u64,
    /// Served results that disagreed with the full-scan oracle.
    pub oracle_mismatches: u64,
    /// Archive gaps the re-request plan does not cover.
    pub uncovered_gaps: u64,
}

fn secs_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Times `$body` (as span `$name`) and yields `(value, seconds)`.
macro_rules! timed {
    ($tracer:expr, $name:expr, $body:expr) => {{
        let started = Instant::now();
        let value = span!($tracer, $name, $body);
        (value, secs_since(started))
    }};
}

/// Runs `f` until its passes add up to [`MIN_PHASE_SECS`] (or
/// [`MAX_PASSES`] ran), tracing only the first pass. Returns the last
/// value and each pass's seconds, so a short phase is reported by the
/// median of many passes, as steady as a long one.
fn repeated<T>(tr: &mut Tracer, mut f: impl FnMut(&mut Tracer) -> T) -> (T, Vec<f64>) {
    let mut passes = Vec::new();
    loop {
        let started = Instant::now();
        let value = f(tr);
        passes.push(secs_since(started));
        tr.mute(true);
        if passes.iter().sum::<f64>() >= MIN_PHASE_SECS || passes.len() >= MAX_PASSES {
            tr.mute(false);
            return (value, passes);
        }
    }
}

/// SplitMix64: the benchmark's own input stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every `ChunkStored` record of the trace, as archive records — what a
/// basestation that observed every store would hold.
#[must_use]
pub fn ledger(trace: &Trace) -> Vec<ArchiveRecord> {
    trace
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ChunkStored {
                node,
                origin,
                event,
                audio_t0,
                audio_t1,
                bytes,
                ..
            } => Some(ArchiveRecord {
                origin,
                event,
                t0: audio_t0,
                t1: audio_t1,
                bytes,
                holder: node,
            }),
            _ => None,
        })
        .collect()
}

/// The seeded query stream. Window starts are [`START_KEYS`] archived
/// records drawn with quadratic popularity skew; a window runs from its
/// start record to the one [`WINDOW_RECORDS`] further on in store order, so
/// a query's work does not depend on how dense the seed's audio is. A
/// quarter of the queries filter to one origin.
#[must_use]
pub fn query_stream(store: &ArchiveStore, w: &Workload, seed: u64) -> Vec<RangeQuery> {
    let records = store.records();
    if records.is_empty() {
        return Vec::new();
    }
    let origins = store.origins();
    let mut state = seed ^ 0x51A7_E0F5_EED5_0001;
    let keys: Vec<usize> = (0..START_KEYS)
        .map(|_| (splitmix(&mut state) % records.len() as u64) as usize)
        .collect();
    (0..w.queries)
        .map(|_| {
            let u = unit(&mut state);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let key = keys[((u * u) * keys.len() as f64) as usize];
            let r = splitmix(&mut state);
            let last = (key + WINDOW_RECORDS[(r % 3) as usize]).min(records.len() - 1);
            let t0 = records[key].t0;
            let origin = (r >> 8)
                .is_multiple_of(4)
                .then(|| origins[((r >> 16) as usize) % origins.len()]);
            RangeQuery {
                t0,
                t1: records[last].t0.max(t0 + SimDuration::from_jiffies(1)),
                origin,
                event: None,
            }
        })
        .collect()
}

/// One query per retrieved event file, spanning the file's audio.
fn file_queries(files: &[enviromic::core::RetrievedFile]) -> Vec<RangeQuery> {
    files
        .iter()
        .filter_map(|f| {
            let t0 = f.chunks.first()?.meta.t_start;
            let t1 = f.chunks.iter().map(|c| c.t_end()).max()?;
            Some(RangeQuery {
                t0,
                t1,
                origin: None,
                event: f.event,
            })
        })
        .collect()
}

/// A started world and what setting it up took.
struct SetUp {
    world: World,
    mule: Option<NodeId>,
    /// Scenario end plus drain.
    end: SimTime,
    nodes: usize,
    scenario_s: f64,
    build_s: f64,
    start_s: f64,
    /// `VmRSS` growth across build and start, per node, KiB.
    rss_per_node_kb: f64,
}

/// Scenario generation, world build (plus the mule on indoor-pipeline),
/// and world start.
fn set_up(w: &Workload, seed: u64, tr: &mut Tracer) -> SetUp {
    let (input, scenario_s) = timed!(tr, "workloads.scenario", w.spec().build(seed));
    let end = input.scenario.end() + SimDuration::from_secs_f64(input.drain_secs);
    let nodes = input.scenario.topology.positions().len();
    let rss0 = sys::status_kb("VmRSS");
    let ((mut world, mule), build_s) = timed!(tr, "sim.build_world", {
        let mut world = build_world(&input.scenario, &input.node_cfg, input.world_cfg);
        let mule = (w.kind == Kind::Indoor)
            .then(|| world.add_node(MULE_POSITION, Box::new(DataMule::new(w.mule_config(end)))));
        (world, mule)
    });
    let ((), start_s) = timed!(tr, "sim.start", world.run_until(SimTime::ZERO));
    #[allow(clippy::cast_precision_loss)]
    let rss_per_node_kb = sys::status_kb("VmRSS").saturating_sub(rss0) as f64 / nodes.max(1) as f64;
    SetUp {
        world,
        mule,
        end,
        nodes,
        scenario_s,
        build_s,
        start_s,
        rss_per_node_kb,
    }
}

/// One set-up without the rest of the pipeline: its seconds and its
/// `VmRSS` growth per node (KiB). The world is dropped untimed.
#[must_use]
pub fn setup_only(w: &Workload, input_seed: u64) -> (f64, f64) {
    let started = Instant::now();
    let s = set_up(w, input_seed, &mut Tracer::new());
    (secs_since(started), s.rss_per_node_kb)
}

/// Where the archive's records come from.
enum Collected {
    /// Chunks the data mule received over the radio.
    Mule(Vec<enviromic::flash::Chunk>, NodeId),
    /// Storage-ledger records: `count` are ingested, cycling through the
    /// ledger with copy `c` shifted by `c * day`.
    Ledger {
        records: Vec<ArchiveRecord>,
        count: usize,
        day: SimDuration,
    },
}

impl Collected {
    /// Feeds every collected record to `builder`.
    fn ingest(&self, builder: &mut ArchiveBuilder) {
        match self {
            Collected::Mule(chunks, mule) => {
                chunks.iter().for_each(|c| builder.ingest_chunk(c, *mule))
            }
            Collected::Ledger {
                records,
                count,
                day,
            } => {
                for (i, r) in records.iter().cycle().take(*count).enumerate() {
                    let copy = (i / records.len()) as u64;
                    let shift = SimDuration::from_jiffies(day.as_jiffies() * copy);
                    builder.ingest(ArchiveRecord {
                        t0: r.t0 + shift,
                        t1: r.t1 + shift,
                        ..*r
                    });
                }
            }
        }
    }

    /// Records handed to the archive.
    fn len(&self) -> u64 {
        match self {
            Collected::Mule(chunks, _) => chunks.len() as u64,
            Collected::Ledger { records, count, .. } if !records.is_empty() => *count as u64,
            Collected::Ledger { .. } => 0,
        }
    }
}

/// Runs the whole pipeline once on the inputs of `input_seed` (one of
/// [`Workload::input_seeds`]) with `workers` serving threads, recording
/// spans on `tr` when it is on.
///
/// # Panics
///
/// Panics if the program breaks an internal invariant (a world without
/// its mule, a served result missing).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_iteration(w: &Workload, input_seed: u64, workers: usize, tr: &mut Tracer) -> Iteration {
    let seed = input_seed;
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ph = Phases::default();
    let mut pass_times = Passes::default();

    // Setup.
    let started = Instant::now();
    let phase = tr.enter("phase.setup");
    let SetUp {
        mut world,
        mule,
        end,
        nodes,
        scenario_s,
        build_s,
        start_s,
        ..
    } = set_up(w, seed, tr);
    tr.exit(phase);
    ph.setup = secs_since(started);

    // Simulate.
    let started = Instant::now();
    let phase = tr.enter("phase.simulate");
    let ((), run_s) = timed!(tr, "sim.run_until", world.run_until(end));
    tr.exit(phase);
    ph.simulate = secs_since(started);
    let sim_events = world.events_dispatched();

    // Retrieve: over the radio with the mule, else one pass over the
    // storage ledger. Finishing the world is accounted to the output.
    let started = Instant::now();
    let phase = tr.enter("phase.retrieve");
    let mut stored = 0u64;
    let mut files = Vec::new();
    let mule_chunks = mule.map(|mule| {
        let window =
            SimDuration::from_secs_f64(f64::from(w.mule_rounds) * MULE_ROUND_SECS + MULE_TAIL_SECS);
        span!(tr, "sim.run_until", world.run_until(end + window));
        stored = (0..nodes)
            .map(|i| {
                let app = world.app_as::<EnviroMicNode>(NodeId::from_index(i));
                u64::from(
                    app.expect("every topology node runs EnviroMic")
                        .stored_chunks(),
                )
            })
            .sum();
        let app = world
            .app_as::<DataMule>(mule)
            .expect("the mule node runs DataMule");
        let chunks = span!(tr, "core.chunks", app.chunks().to_vec());
        files = span!(tr, "core.files", app.files());
        (chunks, mule)
    });
    tr.exit(phase);
    ph.retrieve = secs_since(started);
    pass_times.retrieve = vec![ph.retrieve];
    let retrieve_events = world.events_dispatched() - sim_events;

    let started = Instant::now();
    let phase = tr.enter("phase.output");
    let ((), finish_s) = timed!(tr, "sim.finish", world.finish());
    let ((trace, telemetry), into_parts_s) = timed!(tr, "sim.into_parts", world.into_parts());
    tr.exit(phase);
    ph.output = secs_since(started);

    let collected = match mule_chunks {
        Some((chunks, mule)) => Collected::Mule(chunks, mule),
        None => {
            let phase = tr.enter("phase.retrieve");
            let (records, passes) = repeated(tr, |tr| span!(tr, "runtime.ledger", ledger(&trace)));
            tr.exit(phase);
            pass_times.retrieve = passes.iter().map(|p| ph.retrieve + p).collect();
            ph.retrieve += median(&passes);
            let day = SimDuration::from_secs_f64(end.as_secs_f64().ceil());
            let distinct = records
                .iter()
                .map(|r| (r.origin, r.t0))
                .collect::<BTreeSet<_>>()
                .len();
            Collected::Ledger {
                count: (w.archive_records * records.len()).div_ceil(distinct.max(1)),
                records,
                day,
            }
        }
    };

    // Archive.
    let tolerance = SimDuration::from_secs_f64(GAP_TOLERANCE_SECS);
    let slack = SimDuration::from_secs_f64(GAP_SLACK_SECS);
    let phase = tr.enter("phase.archive");
    let mut parts: Vec<[f64; 3]> = Vec::new();
    let ((store, plan, ingest), passes) = repeated(tr, |tr| {
        let mut builder = ArchiveBuilder::new();
        let ((), ingest_s) = timed!(tr, "archive.ingest", collected.ingest(&mut builder));
        let ingest = builder.stats();
        let (store, build_s) = timed!(tr, "archive.build", builder.build());
        let (plan, gaps_s) = timed!(
            tr,
            "archive.rerequest_plan",
            rerequest_plan(&store, tolerance, slack)
        );
        parts.push([ingest_s, build_s, gaps_s]);
        (store, plan, ingest)
    });
    tr.exit(phase);
    ph.archive = median(&passes);
    pass_times.archive = passes;
    let part = |k: usize| median(&parts.iter().map(|p| p[k]).collect::<Vec<_>>());
    let (ingest_s, archive_build_s, gaps_s) = (part(0), part(1), part(2));

    // Serve: every pass starts with an empty cache.
    let started = Instant::now();
    let phase = tr.enter("phase.serve");
    let queries = span!(
        tr,
        "workloads.queries",
        match w.kind {
            Kind::Indoor => file_queries(&files),
            Kind::City | Kind::ArchiveServe => query_stream(&store, w, seed),
        }
    );
    let generate_s = secs_since(started);
    let (outcome, passes) = repeated(tr, |tr| {
        span!(
            tr,
            "archive.serve",
            serve_queries(&store, &queries, CACHE_CAPACITY, workers, None)
        )
    });
    tr.exit(phase);
    let serve_s = median(&passes);
    ph.serve = generate_s + serve_s;
    pass_times.serve = passes;

    // Output: the trace digest (finishing the world was timed above).
    let started = Instant::now();
    let phase = tr.enter("phase.output");
    let (digest, digest_s) = timed!(tr, "runtime.digest", trace.digest());
    tr.exit(phase);
    ph.output += secs_since(started);

    // Checks: outside every timed phase.
    let mut state = seed ^ 0x0AC1_E5EE_D000_0002;
    let mut oracle_mismatches = 0u64;
    let samples = ORACLE_SAMPLES.min(queries.len());
    for _ in 0..samples {
        let i = (splitmix(&mut state) % queries.len() as u64) as usize;
        if outcome.results[i] != store.query_full_scan(&queries[i]) {
            oracle_mismatches += 1;
        }
    }
    let gaps = find_gaps(&store, tolerance);
    let uncovered_gaps = gaps.iter().filter(|g| !plan.covers(g.t0, g.t1)).count() as u64;
    let retrieved = collected.len();
    let to_collect = if mule.is_some() { stored } else { retrieved };
    let shortfall = to_collect.saturating_sub(retrieved);
    let recorded_chunks: u64 = trace
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Recorded { bytes, .. } => Some(bytes_to_chunks_ceil(bytes)),
            _ => None,
        })
        .sum();

    let count = |name: &str| telemetry.counter(name).unwrap_or(0);
    #[allow(clippy::cast_precision_loss)]
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let file_gaps: u64 = files.iter().map(|f| f.gaps() as u64).sum();

    for (name, value) in [
        ("sim.events", sim_events),
        ("sim.retrieve_events", retrieve_events),
        ("trace.records", trace.len() as u64),
        ("trace.digest", digest),
        ("sim.packets_sent", count("sim.packets.sent")),
        ("sim.packets_delivered", count("sim.packets.delivered")),
        ("sim.delivery_candidates", count("sim.delivery.candidates")),
        ("sim.timers_fired", count("sim.timers.fired")),
        ("core.chunks_recorded", recorded_chunks),
        ("core.migrate_chunks_out", count("core.migrate.chunks_out")),
        ("flash.writes", count("flash.writes.total")),
        ("retrieve.expected", to_collect),
        ("retrieve.delivered", retrieved),
        ("core.requery_rounds", count("core.retrieve.requery_rounds")),
        ("core.file_gaps", file_gaps),
        ("archive.records", ingest.records),
        ("archive.duplicates", ingest.duplicates),
        ("archive.gaps", gaps.len() as u64),
        ("archive.rerequest_batches", plan.len() as u64),
        ("serve.queries", queries.len() as u64),
        ("serve.cache_hits", outcome.stats.hits),
        ("serve.cache_misses", outcome.stats.misses),
        ("serve.cache_evictions", outcome.stats.evictions),
        ("serve.matched", outcome.matched_total()),
        ("serve.digest", outcome.digest()),
    ] {
        counters.insert(name, value);
    }

    #[allow(clippy::cast_precision_loss)]
    let f = |v: u64| v as f64;
    for (name, value) in [
        ("workloads.scenario_s", scenario_s),
        ("sim.build_s", build_s),
        ("sim.start_s", start_s),
        ("sim.run_s", run_s),
        ("sim.events", f(sim_events)),
        ("sim.ns_per_event", run_s * 1e9 / f(sim_events.max(1))),
        ("sim.packets_sent", f(counters["sim.packets_sent"])),
        (
            "sim.packets_delivered",
            f(counters["sim.packets_delivered"]),
        ),
        (
            "sim.delivery_candidates",
            f(counters["sim.delivery_candidates"]),
        ),
        (
            "sim.delivery_yield",
            ratio(
                counters["sim.packets_delivered"],
                counters["sim.delivery_candidates"],
            ),
        ),
        ("sim.timers_fired", f(counters["sim.timers_fired"])),
        ("sim.finish_s", finish_s + into_parts_s),
        ("runtime.digest_s", digest_s),
        ("runtime.trace_records", f(trace.len() as u64)),
        ("core.chunks_recorded", f(recorded_chunks)),
        (
            "core.migrate_chunks_out",
            f(counters["core.migrate_chunks_out"]),
        ),
        ("flash.writes", f(counters["flash.writes"])),
        (
            "core.retrieve_events",
            f(if mule.is_some() { retrieve_events } else { 0 }),
        ),
        (
            "core.retrieve_chunks",
            f(if mule.is_some() { retrieved } else { 0 }),
        ),
        (
            "core.retrieve_completeness",
            if mule.is_some() {
                ratio(retrieved, stored)
            } else {
                0.0
            },
        ),
        ("core.requery_rounds", f(counters["core.requery_rounds"])),
        ("core.file_gaps", f(file_gaps)),
        ("archive.ingest_s", ingest_s),
        ("archive.build_s", archive_build_s),
        ("archive.records", f(ingest.records)),
        ("archive.duplicates", f(ingest.duplicates)),
        ("archive.gaps_s", gaps_s),
        ("archive.gaps", f(gaps.len() as u64)),
        ("archive.rerequest_batches", f(plan.len() as u64)),
        ("archive.serve_s", serve_s),
        ("archive.cache_hits", f(outcome.stats.hits)),
        ("archive.cache_misses", f(outcome.stats.misses)),
        ("archive.cache_evictions", f(outcome.stats.evictions)),
        ("archive.cache_hit_ratio", outcome.stats.hit_ratio()),
        ("archive.scan_p50_us", outcome.latency.p50_us),
        ("archive.scan_p99_us", outcome.latency.p99_us),
        (
            "archive.matched_per_query",
            ratio(outcome.matched_total(), queries.len() as u64),
        ),
    ] {
        layer.insert(name, value);
    }

    // One operation per chunk to collect, per served query, per oracle
    // sample, and per gap the plan must cover.
    let attempted = to_collect + queries.len() as u64 + samples as u64 + gaps.len() as u64;
    Iteration {
        phases: ph,
        passes: pass_times,
        queries: queries.len() as u64,
        layer,
        counters,
        attempted,
        shortfall,
        oracle_mismatches,
        uncovered_gaps,
    }
}
