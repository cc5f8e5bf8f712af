//! Storage-policy ablation driver.
//!
//! ```text
//! policies [--seeds N] [--seed-start S] [--jobs N] [--duration SECS]
//!          [--out PATH] [-q | --verbose]
//!
//! --seeds N          number of consecutive seeds per cell (default 3)
//! --seed-start S     first seed (default 42)
//! --jobs N           worker threads (default: available cores)
//! --duration SECS    per-run duration (default 600)
//! --out PATH         comparative report JSON
//!                    (default target/bench/BENCH_policies.json)
//! ```
//!
//! Runs every `BalancePolicy` implementation head-to-head through the
//! indoor, forest, and chaos scenario families and writes the
//! `PolicyMatrix` report, whose rows carry each run's trace digest. The
//! report contains no wall-clock data, so the same seeds produce a
//! **byte-identical** file at any `--jobs` value — CI regenerates it at
//! `--jobs 1` and `--jobs 2`, diffs the two, and diffs the result against
//! the committed `BENCH_policies.json`.

use enviromic::observe::write_with_parents;
use enviromic_bench::ablation::run_policy_matrix;
use enviromic_telemetry::{log, log_info};

struct Options {
    seeds: u64,
    seed_start: u64,
    jobs: usize,
    duration: f64,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: policies [--seeds N] [--seed-start S] [--jobs N] [--duration SECS] \
         [--out PATH] [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seeds: 3,
        seed_start: 42,
        jobs: enviromic_types::default_workers(),
        duration: 600.0,
        out: String::from("target/bench/BENCH_policies.json"),
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seeds" => opts.seeds = value().parse().unwrap_or_else(|_| usage()),
            "--seed-start" => opts.seed_start = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--duration" => opts.duration = value().parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out = value(),
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    if opts.seeds == 0 {
        usage();
    }
    opts
}

fn main() {
    let opts = parse_args();
    let seeds: Vec<u64> = (opts.seed_start..opts.seed_start + opts.seeds).collect();
    log_info!(
        "[policies] {} seeds per cell, {:.0}s per run, on {} workers...",
        opts.seeds,
        opts.duration,
        opts.jobs,
    );
    let matrix = run_policy_matrix(&seeds, opts.duration, opts.jobs);
    print!("{}", matrix.render());
    write_with_parents("policies", &opts.out, &matrix.to_json());
}
