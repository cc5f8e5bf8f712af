//! Runs a workload for a time budget and turns its iterations into the
//! benchmark's result: end-to-end metrics (untraced), per-layer metrics
//! (traced), the deterministic counter block, and the checks.

use crate::pipeline::{run_iteration, setup_only, Iteration, Kind, Workload};
use crate::spans::{layer_self_secs, spans_json, Span, Tracer};
use crate::sys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: name, unit, which direction is better, and the
/// share of the parent's median by which a change may worsen it.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("retrieve_s", "s", "lower", 0.25),
    ("archive_ready_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics: name, unit, which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("workloads.scenario_s", "s", "lower"),
    ("sim.build_s", "s", "lower"),
    ("sim.start_s", "s", "lower"),
    ("sim.rss_per_node_kb", "kB", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.packets_sent", "count", "lower"),
    ("sim.packets_delivered", "count", "lower"),
    ("sim.delivery_candidates", "count", "lower"),
    ("sim.delivery_yield", "ratio", "higher"),
    ("sim.timers_fired", "count", "lower"),
    ("sim.finish_s", "s", "lower"),
    ("runtime.digest_s", "s", "lower"),
    ("runtime.trace_records", "count", "lower"),
    ("core.chunks_recorded", "count", "higher"),
    ("core.migrate_chunks_out", "count", "lower"),
    ("flash.writes", "count", "lower"),
    ("core.retrieve_events", "count", "lower"),
    ("core.retrieve_chunks", "count", "higher"),
    ("core.retrieve_completeness", "ratio", "higher"),
    ("core.requery_rounds", "count", "lower"),
    ("core.file_gaps", "count", "lower"),
    ("archive.ingest_s", "s", "lower"),
    ("archive.build_s", "s", "lower"),
    ("archive.records", "count", "higher"),
    ("archive.duplicates", "count", "lower"),
    ("archive.gaps_s", "s", "lower"),
    ("archive.gaps", "count", "lower"),
    ("archive.rerequest_batches", "count", "lower"),
    ("archive.serve_s", "s", "lower"),
    ("archive.cache_hits", "count", "higher"),
    ("archive.cache_misses", "count", "lower"),
    ("archive.cache_evictions", "count", "lower"),
    ("archive.cache_hit_ratio", "ratio", "higher"),
    ("archive.scan_p50_us", "us", "lower"),
    ("archive.scan_p99_us", "us", "lower"),
    ("archive.matched_per_query", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("archive.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// The committed 100k-node scale row the city workload must reproduce at
/// seed 42.
const BENCH_SCALE: &str = include_str!("../../BENCH_scale.json");
/// Seed of the committed scale row.
const GOLDEN_SEED: u64 = 42;

/// Iterations below this are always run, even past the time budget, so
/// medians and the traced/untraced pairing have samples.
const MIN_ITERATIONS: usize = 3;
/// Before each iteration, set-up alone is sampled until this many samples
/// were taken or [`SETUP_SAMPLE_SECS`] was spent (at least once). The
/// host's speed swings by half over a few seconds, and a 48-mote set-up
/// takes 0.3 ms, so a burst of samples reads whichever speed the host had
/// at that moment. A quarter second of samples before every iteration
/// reads the host over the whole run, as the long phases do.
const SETUP_SAMPLES: usize = 2_000;
const SETUP_SAMPLE_SECS: f64 = 0.25;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Time budget for the iterations, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Provenance stamp, a JSON object.
    pub provenance: String,
    /// Deterministic counters of the first iteration (the first input
    /// world).
    pub counters: BTreeMap<&'static str, u64>,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Outputs passed every check.
    pub correct: bool,
    /// Operations attempted in one pass of the pipeline over each input
    /// world, plus the digest check.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Human-readable reasons for `correct == false` or `failed > 0`.
    pub notes: Vec<String>,
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The committed `(events, digest)` of the `city-100k` scale row.
fn golden_scale_row() -> Option<(u64, u64)> {
    let value = serde::Value::from_json(BENCH_SCALE).ok()?;
    let row = value
        .get("rows")?
        .as_seq()?
        .iter()
        .find(|r| r.get("scenario").and_then(serde::Value::as_str) == Some("city-100k"))?;
    let events = row.get("events")?.as_u64()?;
    let digest = row.get("digest")?.as_str()?.trim_start_matches("0x");
    Some((events, u64::from_str_radix(digest, 16).ok()?))
}

fn provenance(w: &Workload, opts: &RunOptions, inputs: &[u64], iterations: usize) -> String {
    let inputs: Vec<String> = inputs.iter().map(u64::to_string).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"input_seeds\": [{}], \"nodes\": {}, \"sim_secs\": {}, \"workers\": {}, \
         \"nproc\": {}, \"commit\": \"{}\", \"trace\": {}, \"seconds\": {}, \"iterations\": {}}}",
        w.name,
        opts.seed,
        inputs.join(", "),
        w.nodes,
        w.sim_secs,
        w.serve_workers(),
        sys::nproc(),
        sys::git_commit(),
        u8::from(opts.trace),
        opts.seconds,
        iterations
    )
}

/// End-to-end metrics of a run. A phase that repeats within an iteration
/// is the median over its passes in all iterations: on a host whose speed
/// swings for seconds at a time, a median of per-iteration medians follows
/// the speed of the few moments those iterations ran.
fn end_to_end(
    iters: &[Iteration],
    setups: &[f64],
    peak_kb: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let of = |f: &dyn Fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Iteration) -> &[f64]| {
        median(
            &iters
                .iter()
                .flat_map(|it| f(it).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    #[allow(clippy::cast_precision_loss)]
    let rates: Vec<f64> = iters
        .iter()
        .flat_map(|it| {
            it.passes
                .serve
                .iter()
                .map(|p| it.queries as f64 / p.max(1e-9))
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let peak_mb = peak_kb as f64 / 1024.0;
    let values = [
        median(setups),
        of(&|it| it.phases.simulate),
        pooled(&|it| &it.passes.retrieve),
        pooled(&|it| &it.passes.archive),
        median(&rates),
        of(&|it| it.phases.total()),
        peak_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, v, unit))
        .collect()
}

fn per_layer(
    iters: &[Iteration],
    traced: &[bool],
    spans: &[Span],
    rss_per_node_kb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let on: Vec<(usize, &Iteration)> = iters
        .iter()
        .enumerate()
        .filter(|(i, _)| traced[*i])
        .collect();
    let totals = |want: bool| {
        let v: Vec<f64> = iters
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(it, _)| it.phases.total())
            .collect();
        median(&v)
    };
    let selfs: Vec<BTreeMap<&str, f64>> = on
        .iter()
        .map(|(i, _)| layer_self_secs(spans, u32::try_from(*i).unwrap_or(u32::MAX)))
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = if name == "trace.overhead_s" {
                totals(true) - totals(false)
            } else if name == "sim.rss_per_node_kb" {
                rss_per_node_kb
            } else if let Some(layer) = name.strip_suffix(".self_s") {
                median(
                    &selfs
                        .iter()
                        .map(|s| s.get(layer).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                )
            } else {
                median(&on.iter().map(|(_, it)| it.layer[name]).collect::<Vec<_>>())
            };
            (name, value, unit)
        })
        .collect()
}

/// Runs `w` iteration after iteration, each after a round of set-up
/// samples, until the next one would end more than half an iteration past
/// the budget (at least [`MIN_ITERATIONS`], one more in traced runs so
/// traced and untraced iterations alternate), then checks and reports.
/// A 10 s city iteration then fits four times into 40 s, not three.
#[must_use]
pub fn run(w: &Workload, opts: &RunOptions) -> RunResult {
    let mut tracer = Tracer::new();
    let clock = Instant::now();
    let min = MIN_ITERATIONS + usize::from(opts.trace);
    let inputs = w.input_seeds(opts.seed);
    // The first set-up sample runs in the fresh process, so its memory
    // growth is the per-node footprint: later set-ups reuse memory an
    // earlier world freed.
    let mut setups = Vec::new();
    let mut rss_per_node_kb = 0.0;
    let mut iters: Vec<Iteration> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    // Peak memory of one pass on the first input world. Later worlds of
    // other sizes would add the allocator's fragmentation to the figure.
    let mut peak_kb = 0;
    loop {
        let i = iters.len();
        let on = opts.trace && i.is_multiple_of(2);
        let input_seed = inputs[i % inputs.len()];
        let started = Instant::now();
        for n in 0..SETUP_SAMPLES {
            if n > 0 && started.elapsed().as_secs_f64() >= SETUP_SAMPLE_SECS {
                break;
            }
            let (secs, rss) = setup_only(w, input_seed);
            if setups.is_empty() {
                rss_per_node_kb = rss;
            }
            setups.push(secs);
        }
        tracer.set(on, u32::try_from(i).unwrap_or(u32::MAX));
        let it = run_iteration(w, input_seed, w.serve_workers(), &mut tracer);
        let p = it.phases;
        eprintln!(
            "perfbench: iteration {i}{}: setup {:.4}s simulate {:.3}s retrieve {:.3}s archive {:.4}s serve {:.3}s output {:.3}s",
            if on { " (traced)" } else { "" },
            p.setup, p.simulate, p.retrieve, p.archive, p.serve, p.output
        );
        iters.push(it);
        traced.push(on);
        if i == 0 {
            peak_kb = sys::status_kb("VmHWM");
        }
        let per = started.elapsed().as_secs_f64();
        if iters.len() >= min && clock.elapsed().as_secs_f64() + per / 2.0 > opts.seconds {
            break;
        }
    }
    tracer.set(false, 0);
    setups.extend(iters.iter().map(|it| it.phases.setup));

    // Each input world's first iteration counts its operations; later
    // iterations of a world must repeat its counters exactly.
    let worlds = inputs.len().min(iters.len());
    let first = &iters[0];
    let mut notes = Vec::new();
    let mut attempted = 1;
    let mut failed = 0;
    for (seed, it) in inputs.iter().zip(&iters[..worlds]) {
        attempted += it.attempted;
        failed += it.shortfall + it.oracle_mismatches + it.uncovered_gaps;
        if it.shortfall > 0 {
            notes.push(format!(
                "input seed {seed}: {} of {} stored chunks were not retrieved",
                it.shortfall, it.counters["retrieve.expected"]
            ));
        }
    }
    let mut correct = true;
    for (i, it) in iters.iter().enumerate() {
        if it.oracle_mismatches > 0 || it.uncovered_gaps > 0 {
            correct = false;
            notes.push(format!(
                "iteration {i}: {} oracle mismatches, {} gaps outside the re-request plan",
                it.oracle_mismatches, it.uncovered_gaps
            ));
        }
    }
    let deterministic = iters
        .iter()
        .enumerate()
        .all(|(i, it)| it.counters == iters[i % worlds].counters);
    let golden = if w.kind == Kind::City && w.nodes == 100_000 && opts.seed == GOLDEN_SEED {
        let got = (
            first.counters["trace.records"],
            first.counters["trace.digest"],
        );
        let want = golden_scale_row();
        if want != Some(got) {
            notes.push(format!(
                "city-100k seed 42 gave {} records / {:#018x}, committed {want:?}",
                got.0, got.1
            ));
        }
        want == Some(got)
    } else {
        true
    };
    if !deterministic {
        notes.push("iterations of one input world disagreed on deterministic counters".into());
    }
    if !(deterministic && golden) {
        correct = false;
        failed += 1;
    }

    let metrics = if opts.trace {
        per_layer(&iters, &traced, tracer.spans(), rss_per_node_kb)
    } else {
        end_to_end(&iters, &setups, peak_kb)
    };
    RunResult {
        provenance: provenance(w, opts, &inputs, iters.len()),
        counters: first.counters.clone(),
        metrics,
        correct,
        attempted,
        failed,
        spans: tracer.spans().to_vec(),
        notes,
    }
}

fn counters_json(counters: &BTreeMap<&'static str, u64>) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl RunResult {
    /// The deterministic counter block, a JSON object.
    #[must_use]
    pub fn counters_json(&self) -> String {
        counters_json(&self.counters)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report written at exit: provenance, counters, result,
    /// notes, and spans.
    #[must_use]
    pub fn report_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"provenance\": {},", self.provenance);
        let _ = writeln!(s, "  \"counters\": {},", self.counters_json());
        let _ = writeln!(s, "  \"result\": {},", self.result_json());
        let notes: Vec<String> = self.notes.iter().map(|n| format!("{n:?}")).collect();
        let _ = writeln!(s, "  \"notes\": [{}],", notes.join(", "));
        let _ = writeln!(s, "  \"spans\": {}", spans_json(&self.spans));
        s.push('}');
        s
    }
}
