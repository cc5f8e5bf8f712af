//! Criterion bench for the parallel sweep engine: a small sweep at 1
//! worker and at all available cores. Digest equality across worker
//! counts is checked by `src/sweep.rs`'s `pool_size_does_not_change_results`
//! and by CI's sweep leg, which diffs `--jobs 1` against `--jobs 2`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use enviromic::sweep::{run_sweep, SweepPlan};

/// Worker count for the "parallel" variants: every available core, floored
/// at 4 so the multi-worker path (and its digest-equality contract) is
/// exercised even on small CI hosts. Speedup over `jobs_1` then reflects
/// whatever parallelism the host actually has.
fn pool_workers() -> usize {
    enviromic_types::default_workers().max(4)
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
criterion_main!(benches);
