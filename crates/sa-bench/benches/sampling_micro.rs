//! Criterion micro-benchmarks for the sampling layer: the per-item costs
//! that determine where StreamApprox's throughput advantage begins.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_sampling::{sample_by_key_exact, scasrs_sample, OasrsSampler, Reservoir, SizingPolicy};
use sa_types::StratumId;

fn bench_reservoir(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("observe_100k_cap1k", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(1),
            |mut rng| {
                let mut r = Reservoir::new(1_000);
                for i in 0..100_000u64 {
                    r.observe(black_box(i), &mut rng);
                }
                r.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_oasrs(c: &mut Criterion) {
    let mut group = c.benchmark_group("oasrs");
    group.throughput(Throughput::Elements(100_000));
    for strata in [3u32, 16, 64] {
        group.bench_function(format!("observe_100k_{strata}_strata"), |b| {
            b.iter(|| {
                let mut s: OasrsSampler<u64> = OasrsSampler::new(SizingPolicy::PerStratum(256), 2);
                for i in 0..100_000u64 {
                    s.observe(StratumId(i as u32 % strata), black_box(i));
                }
                s.finish_interval().total_sampled()
            })
        });
    }
    group.finish();
}

fn bench_scasrs(c: &mut Criterion) {
    let mut group = c.benchmark_group("scasrs");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("sample_10k_of_100k", |b| {
        b.iter_batched(
            || {
                (
                    (0..100_000u64).collect::<Vec<_>>(),
                    SmallRng::seed_from_u64(3),
                )
            },
            |(items, mut rng)| scasrs_sample(items, 10_000, &mut rng).len(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_stratified(c: &mut Criterion) {
    let mut group = c.benchmark_group("stratified");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("sample_by_key_exact_100k", |b| {
        b.iter_batched(
            || {
                let groups: Vec<(StratumId, Vec<u64>)> = (0..4u32)
                    .map(|k| (StratumId(k), (0..25_000u64).collect()))
                    .collect();
                (groups, SmallRng::seed_from_u64(4))
            },
            |(groups, mut rng)| sample_by_key_exact(groups, 0.1, &mut rng).total_sampled(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reservoir, bench_oasrs, bench_scasrs, bench_stratified
}
criterion_main!(benches);
