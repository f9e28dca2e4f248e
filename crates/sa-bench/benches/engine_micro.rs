//! Criterion micro-benchmarks for the two engines: narrow vs wide
//! transformations on the batched engine (the shuffle is what makes STS
//! expensive) and raw pipeline streaming throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sa_batched::{Cluster, Pds};
use sa_pipelined::{Exchange, Flow, Map};
use sa_types::{EventTime, StratumId, StreamItem};

fn items(n: usize) -> Vec<StreamItem<u64>> {
    (0..n)
        .map(|i| {
            StreamItem::new(
                StratumId(i as u32 % 4),
                EventTime::from_millis(i as i64),
                i as u64,
            )
        })
        .collect()
}

fn bench_batched(c: &mut Criterion) {
    let cluster = Cluster::new(2);
    let mut group = c.benchmark_group("batched");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("map_100k", |b| {
        b.iter_batched(
            || Pds::from_vec((0..100_000u64).collect::<Vec<_>>(), 4),
            |pds| pds.map(&cluster, |x| x * 2).count(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("reduce_by_key_100k", |b| {
        b.iter_batched(
            || Pds::from_vec((0..100_000u64).map(|i| (i % 64, i)).collect::<Vec<_>>(), 4),
            |pds| pds.reduce_by_key(&cluster, |a, b| a + b).count(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("group_by_key_100k", |b| {
        b.iter_batched(
            || Pds::from_vec((0..100_000u64).map(|i| (i % 64, i)).collect::<Vec<_>>(), 4),
            |pds| pds.group_by_key(&cluster).count(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipelined");
    group.throughput(Throughput::Elements(100_000));
    group.sample_size(10);
    group.bench_function("source_map_sink_100k", |b| {
        b.iter_batched(
            || items(100_000),
            |stream| {
                Flow::source(stream, 100)
                    .then(2, Exchange::Rebalance, |_| Map::new(|v: u64| v * 2))
                    .collect()
                    .len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batched, bench_pipelined
}
criterion_main!(benches);
