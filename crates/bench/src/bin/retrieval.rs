//! Retrieval serving benchmark driver.
//!
//! ```text
//! retrieval [--queries N] [--cache N] [--jobs N] [--out PATH]
//!           [--telemetry-out PATH] [-q | --verbose]
//!
//! --queries N         workload size (default 600)
//! --cache N           LRU capacity in distinct queries (default 256; 0 disables)
//! --jobs N            worker threads serving the workload (default: cores)
//! --out PATH          committed report JSON
//!                     (default target/bench/BENCH_retrieval.json)
//! --telemetry-out PATH also write the archive.* telemetry report
//! ```
//!
//! Builds the basestation archive from the golden seed-42 `quick-indoor`
//! run, serves the committed query workload cached *and* uncached, and
//! refuses to write anything if the two disagree or the cache never hit.
//! The report contains no wall-clock data, so the same constants produce
//! a **byte-identical** file at any `--jobs` value — CI regenerates it at
//! `--jobs 1` and `--jobs 2`, diffs the two, and diffs the result against
//! the committed `BENCH_retrieval.json`. The report's result digest folds
//! every per-query digest in workload order, so a single reordered or
//! changed answer shows in that diff. Throughput and latency stay on the
//! console; the `--telemetry-out` report holds only `archive.*` counters,
//! gauges and histograms, and CI diffs it across worker counts too.

use enviromic::observe::write_with_parents;
use enviromic_bench::retrieval::{run_retrieval, RetrievalOptions};
use enviromic_telemetry::{log, log_info};

struct Options {
    bench: RetrievalOptions,
    out: String,
    telemetry_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: retrieval [--queries N] [--cache N] [--jobs N] [--out PATH] \
         [--telemetry-out PATH] [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        bench: RetrievalOptions {
            jobs: enviromic_types::default_workers(),
            ..RetrievalOptions::default()
        },
        out: String::from("target/bench/BENCH_retrieval.json"),
        telemetry_out: None,
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--queries" => opts.bench.queries = value().parse().unwrap_or_else(|_| usage()),
            "--cache" => opts.bench.cache_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.bench.jobs = value().parse().unwrap_or_else(|_| usage());
                if opts.bench.jobs == 0 {
                    usage();
                }
            }
            "--out" => opts.out = value(),
            "--telemetry-out" => opts.telemetry_out = Some(value()),
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    if opts.bench.queries == 0 {
        usage();
    }
    opts
}

fn main() {
    let opts = parse_args();
    log_info!(
        "[retrieval] {} queries, cache capacity {}, on {} workers...",
        opts.bench.queries,
        opts.bench.cache_capacity,
        opts.bench.jobs,
    );
    let run = run_retrieval(&opts.bench);

    // Self-checks before anything is written: the cache must be
    // transparent, and with a nonzero capacity the grid workload must
    // actually hit it.
    if !run.cache_transparent() {
        eprintln!(
            "[retrieval] cached digest {} != uncached digest 0x{:016x}",
            run.report.results.digest, run.uncached_digest,
        );
        std::process::exit(1);
    }
    if opts.bench.cache_capacity > 0 && run.report.cache.hits == 0 {
        eprintln!("[retrieval] cache enabled but the workload never hit it");
        std::process::exit(1);
    }

    print!("{}", run.report.render());
    println!(
        "  timing    build {:.2}s, serve {:.3}s on {} workers \
         ({:.0} queries/s; scan p50 {:.0}us p99 {:.0}us) [console only]",
        run.build_secs,
        run.outcome.wall_secs,
        run.outcome.workers,
        run.outcome.queries_per_sec(),
        run.outcome.latency.p50_us,
        run.outcome.latency.p99_us,
    );
    write_with_parents("retrieval", &opts.out, &run.report.to_json());
    if let Some(path) = &opts.telemetry_out {
        write_with_parents("retrieval", path, &run.telemetry.to_json());
    }
}
