//! Criterion bench for the simulation-core hot loops the spatial index
//! replaced.
//!
//! Three measurements per grid size (25 / 100 / 400 nodes):
//!
//! * **delivery** — resolving the in-range receiver set for a broadcast
//!   from every node in turn, via [`NodeGrid::query_sorted`] versus the
//!   brute-force O(nodes) scan the delivery loop used before;
//! * **sampling** — the per-node peak acoustic level via the precomputed
//!   [`AudibleIndex`] versus the full [`AcousticField`] source scan;
//! * **synthesis** — mixing one full audio block per audible node via the
//!   batched kernel ([`AcousticField::synthesize_batch`]) versus the
//!   per-sample `sample_from` loop it replaced, with throughput in
//!   samples/s. Both paths consume identical canned noise, so the row
//!   isolates the mixing kernel.
//!
//! Each pair computes the same function: `crates/sim/tests/prop_sim.rs`
//! checks grid against brute-force receiver sets and batched against
//! per-sample bytes. Wall time per event at 1k–100k nodes comes from
//! `perfbench --trace 1`, not from here.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enviromic_sim::acoustics::{AcousticField, MixScratch};
use enviromic_sim::spatial::{AudibleIndex, NodeGrid};
use enviromic_types::{audio, Position, SimDuration, SimTime};
use enviromic_workloads::{large_grid_scenario, LargeGridParams, Scenario};

/// Radio range of the indoor world config — the delivery radius the
/// in-tree scenarios actually run with.
const RANGE_FT: f64 = 3.2;

/// Grid sizes under test: (cols, rows) giving 25, 100, and 400 nodes.
const SIZES: [(usize, usize); 3] = [(5, 5), (10, 10), (20, 20)];

/// The large-grid workload scaled down to `cols`×`rows`, keeping its
/// source schedule (8 static + 1 mobile).
fn scenario(cols: usize, rows: usize) -> Scenario {
    let params = LargeGridParams {
        cols,
        rows,
        ..LargeGridParams::default()
    };
    large_grid_scenario(&params, 42)
}

/// The receiver resolution the pre-index delivery loop performed: scan
/// every node, keep those in range (already in ascending index order).
fn brute_receivers(positions: &[Position], center: Position, range_ft: f64, out: &mut Vec<u32>) {
    out.clear();
    for (i, p) in positions.iter().enumerate() {
        if p.distance_to(center) <= range_ft {
            out.push(i as u32);
        }
    }
}

/// One full broadcast round via the grid: resolve receivers from every
/// node in turn. Returns the total receiver count as the live output.
fn grid_round(grid: &NodeGrid, positions: &[Position], out: &mut Vec<u32>) -> usize {
    let mut total = 0;
    for &p in positions {
        grid.query_sorted(p, RANGE_FT, out);
        total += out.len();
    }
    total
}

/// One full broadcast round via the brute-force scan.
fn brute_round(positions: &[Position], out: &mut Vec<u32>) -> usize {
    let mut total = 0;
    for &p in positions {
        brute_receivers(positions, p, RANGE_FT, out);
        total += out.len();
    }
    total
}

/// Sampling instants spread across the first minute of the scenario.
fn sample_times() -> Vec<SimTime> {
    (0..16)
        .map(|i| SimTime::ZERO + SimDuration::from_millis(i * 3750))
        .collect()
}

/// One sampling round via the audible index: peak level at every node at
/// every instant.
fn indexed_sampling_round(
    idx: &AudibleIndex,
    field: &AcousticField,
    positions: &[Position],
    times: &[SimTime],
) -> f64 {
    let mut acc = 0.0;
    for (ni, &p) in positions.iter().enumerate() {
        for &t in times {
            acc += idx.peak_level(field, ni, p, t);
        }
    }
    acc
}

/// One sampling round via the full-field source scan.
fn full_sampling_round(field: &AcousticField, positions: &[Position], times: &[SimTime]) -> f64 {
    let mut acc = 0.0;
    for &p in positions {
        for &t in times {
            acc += field.peak_level(p, t);
        }
    }
    acc
}

/// Samples per synthesized audio block — one chunk payload.
const BLOCK_SAMPLES: usize = audio::CHUNK_PAYLOAD_BYTES as usize;

/// Deterministic pseudo-noise vector standing in for the per-sample RNG
/// draws. Both synthesis paths consume the identical values, so the
/// comparison isolates the mixing kernel from RNG cost.
fn canned_noise() -> Vec<f64> {
    (0..BLOCK_SAMPLES)
        .map(|i| (i as f64 * 37.0) % 100.0 / 50.0 - 1.0)
        .collect()
}

/// The per-node synthesis work list: `(node index, position, block start)`
/// for every node whose candidate set is non-empty at that block. Nodes
/// out of earshot reduce both paths to a noise copy and would only dilute
/// the kernel measurement.
fn synth_work(
    idx: &AudibleIndex,
    positions: &[Position],
    times: &[SimTime],
) -> Vec<(usize, Position, SimTime)> {
    let mut work = Vec::new();
    let mut cand = Vec::new();
    for (ni, &p) in positions.iter().enumerate() {
        for &t0 in times {
            idx.block_sources(ni, t0, t0 + audio::chunk_duration(), &mut cand);
            if !cand.is_empty() {
                work.push((ni, p, t0));
            }
        }
    }
    work
}

/// One synthesis round through the batched kernel: every work item mixes
/// one full audio block. Returns a checksum as the live output.
fn synth_round_batched(
    field: &AcousticField,
    idx: &AudibleIndex,
    work: &[(usize, Position, SimTime)],
    noise: &[f64],
    cand: &mut Vec<u32>,
    scratch: &mut MixScratch,
    out: &mut Vec<u8>,
) -> u64 {
    let mut acc = 0u64;
    for &(ni, p, t0) in work {
        idx.block_sources(ni, t0, t0 + audio::chunk_duration(), cand);
        field.synthesize_batch(cand, p, t0.as_secs_f64(), noise, scratch, out);
        acc = acc.wrapping_add(u64::from(out[0]) + u64::from(out[noise.len() - 1]));
    }
    acc
}

/// One synthesis round through the per-sample reference path the batched
/// kernel replaced: `sample_from` once per sample.
fn synth_round_per_sample(
    field: &AcousticField,
    idx: &AudibleIndex,
    work: &[(usize, Position, SimTime)],
    noise: &[f64],
    cand: &mut Vec<u32>,
    out: &mut Vec<u8>,
) -> u64 {
    let mut acc = 0u64;
    for &(ni, p, t0) in work {
        idx.block_sources(ni, t0, t0 + audio::chunk_duration(), cand);
        let t0_s = t0.as_secs_f64();
        out.clear();
        out.extend(noise.iter().enumerate().map(|(i, &nz)| {
            let t_s = t0_s + i as f64 / audio::SAMPLE_RATE_HZ as f64;
            field.sample_from(cand, p, t_s, nz)
        }));
        acc = acc.wrapping_add(u64::from(out[0]) + u64::from(out[noise.len() - 1]));
    }
    acc
}

fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery_round");
    for (cols, rows) in SIZES {
        let s = scenario(cols, rows);
        let positions = s.topology.positions().to_vec();
        let alive = vec![true; positions.len()];
        let grid = NodeGrid::build(&positions, &alive, RANGE_FT);
        let mut out = Vec::new();
        let n = positions.len();
        group.bench_function(BenchmarkId::new("grid", n), |b| {
            b.iter(|| black_box(grid_round(&grid, &positions, &mut out)));
        });
        group.bench_function(BenchmarkId::new("brute", n), |b| {
            b.iter(|| black_box(brute_round(&positions, &mut out)));
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_round");
    let times = sample_times();
    for (cols, rows) in SIZES {
        let s = scenario(cols, rows);
        let positions = s.topology.positions().to_vec();
        let mut field = AcousticField::new();
        for src in &s.sources {
            field.add_source(src.clone()).expect("valid source");
        }
        let idx = AudibleIndex::build(&positions, &s.sources);
        let n = positions.len();
        group.bench_function(BenchmarkId::new("indexed", n), |b| {
            b.iter(|| black_box(indexed_sampling_round(&idx, &field, &positions, &times)));
        });
        group.bench_function(BenchmarkId::new("full_scan", n), |b| {
            b.iter(|| black_box(full_sampling_round(&field, &positions, &times)));
        });
    }
    group.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis_block");
    let times = sample_times();
    let noise = canned_noise();
    for (cols, rows) in SIZES {
        let s = scenario(cols, rows);
        let positions = s.topology.positions().to_vec();
        let mut field = AcousticField::new();
        for src in &s.sources {
            field.add_source(src.clone()).expect("valid source");
        }
        let idx = AudibleIndex::build(&positions, &s.sources);
        let work = synth_work(&idx, &positions, &times);
        // Report samples/s so rows compare across grid sizes.
        group.throughput(Throughput::Elements((work.len() * BLOCK_SAMPLES) as u64));
        let mut cand = Vec::new();
        let mut scratch = MixScratch::new();
        let mut out = Vec::new();
        let n = positions.len();
        group.bench_function(BenchmarkId::new("batched", n), |b| {
            b.iter(|| {
                black_box(synth_round_batched(
                    &field,
                    &idx,
                    &work,
                    &noise,
                    &mut cand,
                    &mut scratch,
                    &mut out,
                ))
            });
        });
        group.bench_function(BenchmarkId::new("per_sample", n), |b| {
            b.iter(|| {
                black_box(synth_round_per_sample(
                    &field, &idx, &work, &noise, &mut cand, &mut out,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delivery, bench_sampling, bench_synthesis);
criterion_main!(benches);
