//! Scale smoke driver: the city-block workload at 1k–100k nodes.
//!
//! ```text
//! scale [--seed S] [--jobs N] [--duration SECS] [--max-nodes N]
//!       [--out PATH] [--check PATH] [-q | --verbose]
//!
//! --seed S           seed for every run (default 42)
//! --jobs N           worker threads (default: available cores)
//! --duration SECS    per-run duration (default 10)
//! --max-nodes N      drop ladder rungs above N nodes (default: all)
//! --out PATH         report JSON (default target/bench/BENCH_scale.json)
//! --check PATH       compare the produced rows against a committed report
//!                    by scenario label and exit 1 on any mismatch
//! ```
//!
//! Runs [`ScenarioSpec::city`] at each node count through the sweep pool
//! and writes one row per size: node count, trace length, and trace
//! digest. The report contains no wall-clock data, so the same seed
//! produces a **byte-identical** file at any `--jobs` value — CI
//! regenerates it at `--jobs 1` and `--jobs 2`, diffs the two, and checks
//! the rows against the committed `BENCH_scale.json` with `--check`.
//! `--check` matches by label, so a PR-path run truncated with
//! `--max-nodes 40000` still validates its four rungs against the full
//! committed five-rung ladder (the nightly job regenerates all five).
//!
//! This is the workspace's one city ladder. Each rung's wall time (world
//! build, run and digest) is printed on stdout, never written to the
//! report; per-layer time at 100k nodes comes from `perfbench --trace 1`.

use enviromic::sweep::{run_sweep, ScenarioSpec, SweepPlan};
use enviromic_bench::write_with_parents;
use enviromic_telemetry::{log, log_info};
use serde::{Deserialize, Serialize};

/// The node counts of the scale ladder. The 40k and 100k rungs exist
/// because of sparse flash backing: city nodes address 64 chunks each, and
/// payloads materialize only on write, so even a 100k-node world
/// constructs in seconds instead of first-touching gigabytes.
const SIZES: [usize; 5] = [1_000, 4_000, 10_000, 40_000, 100_000];

struct Options {
    seed: u64,
    jobs: usize,
    duration: f64,
    max_nodes: usize,
    out: String,
    check: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: scale [--seed S] [--jobs N] [--duration SECS] [--max-nodes N] \
         [--out PATH] [--check PATH] [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 42,
        jobs: enviromic_types::default_workers(),
        duration: 10.0,
        max_nodes: usize::MAX,
        out: String::from("target/bench/BENCH_scale.json"),
        check: None,
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--duration" => opts.duration = value().parse().unwrap_or_else(|_| usage()),
            "--max-nodes" => {
                opts.max_nodes = value().parse().unwrap_or_else(|_| usage());
                if !SIZES.iter().any(|&n| n <= opts.max_nodes) {
                    usage();
                }
            }
            "--out" => opts.out = value(),
            "--check" => opts.check = Some(value()),
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    opts
}

/// One deterministic row of the scale report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScaleRow {
    /// Scenario point label (`city-1k`, ...).
    scenario: String,
    /// Total nodes in the deployment.
    nodes: u64,
    /// The run's seed.
    seed: u64,
    /// Number of trace records.
    events: u64,
    /// Trace digest as a `0x`-prefixed hex string.
    digest: String,
}

/// The scale report: sim-time duration plus one row per ladder size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScaleReport {
    /// Per-run sim-time duration, seconds.
    duration_secs: f64,
    /// One row per node count, ascending.
    rows: Vec<ScaleRow>,
}

/// Checks every produced row against its same-label committed row. A
/// produced row with no committed counterpart is itself a mismatch — a
/// renamed rung must not silently skip validation.
fn check_rows(produced: &ScaleReport, committed_path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("could not read {committed_path}: {e}"))?;
    let value = serde::Value::from_json(&text).map_err(|e| format!("{committed_path}: {e}"))?;
    let committed: ScaleReport = serde::Deserialize::from_value(&value)
        .map_err(|e: serde::DeError| format!("{committed_path}: {e}"))?;
    if produced.duration_secs != committed.duration_secs {
        return Err(format!(
            "duration {}s differs from committed {}s",
            produced.duration_secs, committed.duration_secs
        ));
    }
    let mut mismatches = Vec::new();
    for row in &produced.rows {
        match committed.rows.iter().find(|c| c.scenario == row.scenario) {
            None => mismatches.push(format!("{}: not in committed report", row.scenario)),
            Some(c) if c != row => mismatches.push(format!(
                "{}: got {} events / {}, committed {} events / {}",
                row.scenario, row.events, row.digest, c.events, c.digest
            )),
            Some(_) => {}
        }
    }
    if mismatches.is_empty() {
        Ok(produced.rows.len())
    } else {
        Err(mismatches.join("\n"))
    }
}

fn main() {
    let opts = parse_args();
    let sizes: Vec<usize> = SIZES
        .iter()
        .copied()
        .filter(|&n| n <= opts.max_nodes)
        .collect();
    let specs: Vec<ScenarioSpec> = sizes
        .iter()
        .map(|&n| ScenarioSpec::city(n, opts.duration))
        .collect();
    log_info!(
        "[scale] city ladder {sizes:?} at seed {} for {:.0}s on {} workers...",
        opts.seed,
        opts.duration,
        opts.jobs,
    );
    let out = run_sweep(&SweepPlan::new(vec![opts.seed], specs), opts.jobs);
    let rows: Vec<ScaleRow> = sizes
        .iter()
        .zip(&out.jobs)
        .map(|(&nodes, job)| ScaleRow {
            scenario: job.label.clone(),
            nodes: nodes as u64,
            seed: job.seed,
            events: job.events as u64,
            digest: format!("{:#018x}", job.digest),
        })
        .collect();
    for (r, job) in rows.iter().zip(&out.jobs) {
        println!(
            "  {:<10} {:>6} nodes  {:>9} events  {}  {:>7.2}s wall",
            r.scenario, r.nodes, r.events, r.digest, job.wall_secs
        );
    }
    let report = ScaleReport {
        duration_secs: opts.duration,
        rows,
    };
    write_with_parents(
        "scale",
        &opts.out,
        &serde::Serialize::to_value(&report).to_json_pretty(),
    );
    if let Some(path) = &opts.check {
        match check_rows(&report, path) {
            Ok(n) => println!("scale check: OK — {n} row(s) match {path}"),
            Err(e) => {
                eprintln!("scale check: MISMATCH vs {path}:\n{e}");
                std::process::exit(1);
            }
        }
    }
}
