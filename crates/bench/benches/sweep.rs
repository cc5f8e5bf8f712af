//! Criterion bench for the parallel sweep engine, doubling as the
//! generator of the machine-readable perf baseline `BENCH_sweep.json`.
//!
//! Two things happen here:
//!
//! 1. Criterion timings for a small sweep at 1 worker and at all
//!    available cores — the per-iteration numbers the terminal shows.
//! 2. One measured 8-seed × 2-scenario quick sweep at `--jobs 1` and at
//!    all cores, written as JSON (per-job digests, per-job and aggregate
//!    wall-clock, speedup) to `BENCH_sweep.json` in the workspace root —
//!    point 0 of the perf trajectory. The run also re-checks that both
//!    worker counts produced identical per-seed digests.

use criterion::{black_box, criterion_group, Criterion};
use enviromic::sweep::{run_sweep, SweepPlan, SweepSummary};
use serde::{Deserialize, Serialize};

/// Worker count for the "parallel" variants: every available core, floored
/// at 4 so the multi-worker path (and its digest-equality contract) is
/// exercised even on small CI hosts. Speedup over `jobs_1` then reflects
/// whatever parallelism the host actually has.
fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().max(4))
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_4x2_30s");
    group.sample_size(10);
    for (label, workers) in [("jobs_1", 1), ("jobs_pool", pool_workers())] {
        group.bench_function(label, |b| {
            let plan = SweepPlan::quick(vec![42, 43, 44, 45], 30.0);
            b.iter(|| black_box(run_sweep(&plan, workers).digests()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool);

/// The serialized baseline: the same sweep grid at both worker counts.
#[derive(Debug, Serialize, Deserialize)]
struct SweepBaseline {
    bench: String,
    runs: Vec<SweepSummary>,
}

/// Runs the quick sweep serially and pooled, checks digest equality, and
/// writes the combined baseline JSON.
fn emit_baseline() {
    let plan = SweepPlan::quick((42..50).collect(), 120.0);
    let serial = run_sweep(&plan, 1);
    let pooled = run_sweep(&plan, pool_workers());
    assert_eq!(
        serial.digests(),
        pooled.digests(),
        "per-seed digests must not depend on the worker count"
    );
    let baseline = SweepBaseline {
        bench: "quick_sweep_8x2_120s".into(),
        runs: vec![serial.summary(), pooled.summary()],
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    let json = serde::Serialize::to_value(&baseline).to_json_pretty();
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!(
        "baseline quick_sweep_8x2_120s: {:.3}s serial -> {:.3}s on {} workers ({:.2}x); wrote BENCH_sweep.json",
        serial.wall_secs,
        pooled.wall_secs,
        pooled.workers,
        serial.wall_secs / pooled.wall_secs.max(1e-9),
    );
}

fn main() {
    benches();
    emit_baseline();
}
