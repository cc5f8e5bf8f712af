//! Benchmark command line.
//!
//! ```text
//! enviromic-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload for about `S` seconds (default 40), checks its
//! outputs, and prints three lines on stdout: the provenance stamp, the
//! deterministic counter block, and — last — the result object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, the per-layer ones.
//! The full report, spans included, is written to
//! `perfbench/out/<workload>-seed<N>-trace<0|1>.json` under the working
//! directory. Exit code 2 means bad arguments.

use enviromic_perfbench::pipeline::{Workload, NAMES};
use enviromic_perfbench::report::{run, RunOptions};
use std::path::Path;

/// Where reports are written, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

fn usage() -> ! {
    eprintln!(
        "usage: enviromic-perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: 42,
        seconds: 40.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::named(&value()).unwrap_or_else(|| usage())),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage());
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };

    let result = run(&workload, &opts);
    for note in &result.notes {
        eprintln!("perfbench: {note}");
    }
    let out = Path::new(OUT_DIR);
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    let written =
        std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, result.report_json()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("provenance {}", result.provenance);
    println!("counters {}", result.counters_json());
    println!("{}", result.result_json());
}
