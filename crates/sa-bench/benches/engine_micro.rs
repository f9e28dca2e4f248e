//! Criterion micro-benchmarks below the engines: the batched engine's
//! groupBy shuffle (what makes STS expensive) and the shared runtime's
//! window finalization on a wide stream. Whole-engine costs per item are
//! the benchmark ladder's `batched.ns_per_item` and
//! `pipelined.ns_per_item`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_batched::{Cluster, Pds};
use sa_estimate::{StratumStats, Welford};
use sa_types::{Confidence, EventTime, StratumId, Window, WindowSpec};
use streamapprox::{PanePayload, WindowFinalizer};

fn bench_batched(c: &mut Criterion) {
    let cluster = Cluster::new(2);
    let mut group = c.benchmark_group("batched");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("group_by_key_100k", |b| {
        b.iter_batched(
            || Pds::from_vec((0..100_000u64).map(|i| (i % 64, i)).collect::<Vec<_>>(), 4),
            |pds| pds.group_by_key(&cluster).count(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One 100 ms pane of a 2,048-stratum stream with Zipf(1) rates at 61.2k
/// items/s, sampled at 20%: the heavy strata are always present, the
/// light ones in some panes only (about 1,500 entries a pane).
fn wide_pane(rng: &mut SmallRng) -> Vec<StratumStats> {
    const STRATA: u32 = 2_048;
    const PANE_ITEMS: f64 = 6_120.0;
    let harmonic: f64 = (1..=STRATA).map(|k| 1.0 / f64::from(k)).sum();
    (0..STRATA)
        .filter_map(|s| {
            let expected = PANE_ITEMS / (f64::from(s + 1) * harmonic);
            if rng.gen::<f64>() >= 1.0 - (-expected).exp() {
                return None;
            }
            let population = expected.round().max(1.0) as u64;
            let sampled = (population / 5).max(1);
            let acc: Welford = (0..sampled)
                .map(|_| f64::from(s) + rng.gen::<f64>())
                .collect();
            Some(StratumStats::from_parts(StratumId(s), population, acc))
        })
        .collect()
}

/// What one emitted answer costs on a wide stream: a 1 s / 100 ms window,
/// so every `close_interval` merges ten panes of ~1,500 strata each and
/// estimates all four aggregates.
fn bench_window_finalize(c: &mut Criterion) {
    const PANE_MS: i64 = 100;
    let mut rng = SmallRng::seed_from_u64(42);
    let panes: Vec<Vec<StratumStats>> = (0..32).map(|_| wide_pane(&mut rng)).collect();
    let mut finalizer = WindowFinalizer::new(
        WindowSpec::sliding_millis(10 * PANE_MS, PANE_MS),
        Confidence::P95,
    );
    let mut next = 0usize;
    let mut group = c.benchmark_group("runtime");
    group.sample_size(200);
    group.bench_function("window_finalize_wide", |b| {
        b.iter_batched(
            || {
                let start = EventTime::from_millis(next as i64 * PANE_MS);
                let payload = PanePayload::Stratified(panes[next % panes.len()].clone());
                next += 1;
                (Window::new(start, start + PANE_MS), payload)
            },
            |(pane, payload)| {
                finalizer.ingest_interval(pane, payload);
                finalizer.close_interval(pane.end);
                finalizer.drain_windows()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batched, bench_window_finalize
}
criterion_main!(benches);
