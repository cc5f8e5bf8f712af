//! `telemetry-diff` — the CI metric regression gate.
//!
//! ```text
//! telemetry-diff --baseline PATH --current PATH [--write] [-q | --verbose]
//!
//! --baseline PATH   committed baseline: a TelemetryReport JSON
//! --current PATH    the run to judge: a TelemetryReport JSON, or a sweep
//!                   summary JSON (its aggregate report is used)
//! --write           (re)capture: write --current, spans stripped, to
//!                   --baseline instead of diffing
//! ```
//!
//! Exits 0 when every counter, gauge and histogram equals the baseline's,
//! 1 on drift or when `--write` cannot write, 2 on usage errors. Spans are
//! wall-clock and never compared. See the `gate` module docs.

use enviromic_bench::{gate, write_with_parents};
use enviromic_telemetry::{log, TelemetryReport};

struct Options {
    baseline: String,
    current: String,
    write: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: telemetry-diff --baseline PATH --current PATH [--write] \
         [-q|--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        baseline: String::new(),
        current: String::new(),
        write: false,
    };
    let mut quiet = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => opts.baseline = value(),
            "--current" => opts.current = value(),
            "--write" => opts.write = true,
            "--quiet" | "-q" => quiet = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    log::init_from_flags(quiet, verbose);
    if opts.baseline.is_empty() || opts.current.is_empty() {
        usage();
    }
    opts
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("telemetry-diff: could not read {path}: {e}");
        std::process::exit(2);
    })
}

fn parse_baseline(path: &str) -> TelemetryReport {
    TelemetryReport::from_json(&read(path)).unwrap_or_else(|e| {
        eprintln!("telemetry-diff: could not parse baseline {path}: {e}");
        std::process::exit(2);
    })
}

/// Accepts either a bare `TelemetryReport` or a sweep summary (any JSON
/// object with an `aggregate` report field).
fn parse_current(path: &str, text: &str) -> TelemetryReport {
    if let Ok(report) = TelemetryReport::from_json(text) {
        return report;
    }
    let fallback = serde::Value::from_json(text)
        .ok()
        .and_then(|v| v.get("aggregate").cloned())
        .and_then(|v| {
            serde::Deserialize::from_value(&v)
                .map_err(|_: serde::DeError| ())
                .ok()
        });
    fallback.unwrap_or_else(|| {
        eprintln!("telemetry-diff: {path} is neither a TelemetryReport nor a sweep summary");
        std::process::exit(2);
    })
}

fn main() {
    let opts = parse_args();
    let mut current = parse_current(&opts.current, &read(&opts.current));

    if opts.write {
        current.spans.clear();
        write_with_parents("telemetry-diff", &opts.baseline, &current.to_json());
        return;
    }

    let baseline = parse_baseline(&opts.baseline);
    let drifts = gate::diff(&baseline, &current);
    if drifts.is_empty() {
        println!("telemetry gate: OK ({} vs {})", opts.current, opts.baseline);
    } else {
        println!(
            "telemetry gate: {} metric(s) drifted ({} vs {}):",
            drifts.len(),
            opts.current,
            opts.baseline
        );
        print!("{}", gate::render_drifts(&drifts));
        std::process::exit(1);
    }
}
