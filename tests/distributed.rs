//! Acceptance tests for the distributed tier (ISSUE: distributed
//! coordinator/worker aggregation over real TCP).
//!
//! The load-bearing claim is §3.2's merge soundness carried over the
//! wire: K worker processes sampling disjoint shards of a stream and
//! shipping per-pane sampler digests to a coordinator must produce
//! window estimates **bit-identical** to a single process holding the
//! same per-shard samplers and merging them through [`ShardSet`]. The
//! tests here run K = 3 workers as threads over real loopback sockets,
//! build the single-process reference by hand from the exported runtime
//! primitives, and compare every float by its bit pattern.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_net::frame::{read_message, write_message, MAGIC};
use sa_net::{Assignment, DigestPayload, Message, WIRE_VERSION};
use sa_types::{
    Confidence, EventTime, FaultPolicy, RunSeed, StratifiedSample, StratumId, StreamItem, Window,
    WindowSpec,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use streamapprox::{
    connect_worker, pane_merge_seed, ApproxSession, CostPolicy, DistributedConfig, FixedFraction,
    FixedPerStratum, Query, RunOutput, ShardSet, ShardedConfig, SizingDirective, StreamApprox,
    TokenPolicy, WindowFinalizer, WindowResult, WorkerPane,
};

const WORKERS: usize = 3;
const EXPECTED_PANE_ITEMS: usize = 1_000;

/// A §6.1-style stream: one dense majority sub-stream and one sparse
/// minority sub-stream (1%) with a very different value scale, one item
/// per millisecond so every worker closes every pane.
fn skewed_stream(n: i64) -> Vec<StreamItem<f64>> {
    (0..n)
        .map(|i| {
            let (stratum, value) = if i % 100 == 0 {
                (StratumId(1), 250.0 + (i % 7) as f64)
            } else {
                (StratumId(0), (i % 50) as f64)
            };
            StreamItem::new(stratum, EventTime::from_millis(i), value)
        })
        .collect()
}

fn policy_for(directive: SizingDirective) -> Box<dyn CostPolicy> {
    match directive {
        SizingDirective::Fraction(f) => Box::new(FixedFraction(f)),
        SizingDirective::PerStratum(n) => Box::new(FixedPerStratum(n)),
        // FixedFraction(1.0) degrades to the exact path by design.
        SizingDirective::Everything => Box::new(FixedFraction(1.0)),
        // One token per item: the token budget is the shared total.
        SizingDirective::SharedTotal(n) => Box::new(TokenPolicy::new(n as u64, 1)),
    }
}

/// Splits the stream into per-worker sub-streams with the canonical
/// shard routing, preserving arrival order within each sub-stream.
fn partition(items: &[StreamItem<f64>], seed: RunSeed) -> Vec<Vec<StreamItem<f64>>> {
    let router = ShardSet::<f64>::new(WORKERS, seed, Arc::new(|v| *v));
    let mut shards = vec![Vec::new(); WORKERS];
    for (seq, item) in items.iter().enumerate() {
        shards[router.route(item.stratum, seq as u64)].push(*item);
    }
    shards
}

/// The single-process oracle: per-shard full-capacity samplers closed at
/// the same pane boundaries the workers close, merged in ascending shard
/// order with the pane-start-derived merge RNG, finalized with the same
/// estimation layer. This is exactly what the coordinator must reproduce
/// from digests that crossed a socket.
fn reference_windows(
    shards: &[Vec<StreamItem<f64>>],
    seed: RunSeed,
    directive: SizingDirective,
    window: WindowSpec,
) -> Vec<WindowResult> {
    let interval = window.slide_millis();
    let mut shard_set = ShardSet::<f64>::new(WORKERS, seed, Arc::new(|v| *v));
    let mut workers = shard_set
        .rearm(directive, EXPECTED_PANE_ITEMS)
        .expect("first arm always rebuilds");
    let mut pending: BTreeMap<i64, BTreeMap<usize, WorkerPane<f64>>> = BTreeMap::new();
    let mut open: Vec<Option<i64>> = vec![None; WORKERS];
    for (w, (worker, items)) in workers.iter_mut().zip(shards).enumerate() {
        for item in items {
            let t = item.time.as_millis();
            let start = open[w].get_or_insert(t.div_euclid(interval) * interval);
            while t >= *start + interval {
                let pane = worker.close_interval_parts();
                pending.entry(*start).or_default().insert(w, pane);
                *start += interval;
            }
            worker.observe(item.stratum, item.value);
        }
        if let Some(start) = open[w] {
            pending
                .entry(start)
                .or_default()
                .insert(w, worker.close_interval_parts());
        }
    }
    let mut finalizer = WindowFinalizer::new(window, query().confidence());
    for (start, mut by_shard) in pending {
        let panes: Vec<WorkerPane<f64>> = (0..WORKERS)
            .map(|w| {
                by_shard
                    .remove(&w)
                    .unwrap_or(WorkerPane::Sampled(StratifiedSample::new()))
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(pane_merge_seed(seed, start));
        let payload = shard_set.merge_panes(panes, &mut rng);
        let end = start + interval;
        finalizer.ingest_interval(
            Window::new(EventTime::from_millis(start), EventTime::from_millis(end)),
            payload,
        );
        finalizer.close_interval(EventTime::from_millis(end));
    }
    finalizer.finish();
    finalizer.drain_windows()
}

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v)
}

/// Runs coordinator + K loopback worker threads over real TCP sockets.
fn distributed_run(
    shards: Vec<Vec<StreamItem<f64>>>,
    seed: RunSeed,
    directive: SizingDirective,
    window: WindowSpec,
) -> RunOutput {
    let policy = policy_for(directive);
    let coordinator = StreamApprox::new(query().with_window(window), policy)
        .distributed(
            DistributedConfig::new(WORKERS as u32)
                .with_seed(seed)
                .with_expected_pane_items(EXPECTED_PANE_ITEMS)
                .with_timeout(Duration::from_secs(20)),
        )
        .expect("bind loopback");
    let addr = coordinator.addr();
    let handles: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(w, items)| {
            thread::spawn(move || {
                let engine =
                    connect_worker(addr, w as u32, false, |v: &f64| *v).expect("worker joins");
                let mut session = ApproxSession::from_engine(Box::new(engine));
                session
                    .push_batch(items)
                    .expect("sub-streams stay event-time ordered");
                session.finish()
            })
        })
        .collect();
    let out = coordinator.finish().expect("clean distributed run");
    for handle in handles {
        let worker_out = handle.join().expect("worker thread");
        assert!(worker_out.items_ingested > 0, "every shard saw items");
    }
    out
}

fn assert_bits(label: &str, got: &sa_types::ApproxResult, want: &sa_types::ApproxResult) {
    assert_eq!(
        got.value.to_bits(),
        want.value.to_bits(),
        "{label}: value {} vs {}",
        got.value,
        want.value
    );
    let (glo, ghi) = got.interval();
    let (wlo, whi) = want.interval();
    assert_eq!(glo.to_bits(), wlo.to_bits(), "{label}: lower bound");
    assert_eq!(ghi.to_bits(), whi.to_bits(), "{label}: upper bound");
    assert_eq!(got.sample_size, want.sample_size, "{label}: sample size");
    assert_eq!(
        got.population_size, want.population_size,
        "{label}: population"
    );
}

fn assert_bit_identical(distributed: &[WindowResult], reference: &[WindowResult]) {
    assert_eq!(
        distributed.len(),
        reference.len(),
        "window counts must agree"
    );
    for (d, r) in distributed.iter().zip(reference) {
        assert_eq!(d.window, r.window);
        assert_bits(&format!("{} sum", d.window), &d.sum, &r.sum);
        assert_bits(&format!("{} mean", d.window), &d.mean, &r.mean);
        assert_eq!(d.sum_by_stratum.len(), r.sum_by_stratum.len());
        for ((ds, dv), (rs, rv)) in d.sum_by_stratum.iter().zip(&r.sum_by_stratum) {
            assert_eq!(ds, rs);
            assert_bits(&format!("{} sum[{ds:?}]", d.window), dv, rv);
        }
        for ((ds, dv), (rs, rv)) in d.mean_by_stratum.iter().zip(&r.mean_by_stratum) {
            assert_eq!(ds, rs);
            assert_bits(&format!("{} mean[{ds:?}]", d.window), dv, rv);
        }
    }
}

/// Exact per-window sums straight off the item stream.
fn exact_window_sums(items: &[StreamItem<f64>], windows: &[WindowResult]) -> Vec<f64> {
    windows
        .iter()
        .map(|w| {
            items
                .iter()
                .filter(|i| w.window.contains(i.time))
                .map(|i| i.value)
                .sum()
        })
        .collect()
}

#[test]
fn three_workers_match_single_process_merge_bit_for_bit_per_stratum() {
    let seed = RunSeed::new(7);
    let directive = SizingDirective::PerStratum(24);
    let window = WindowSpec::sliding_millis(2_000, 1_000);
    let items = skewed_stream(6_000);
    let shards = partition(&items, seed);
    let reference = reference_windows(&shards, seed, directive, window);
    let out = distributed_run(shards, seed, directive, window);

    assert_eq!(out.items_ingested, items.len() as u64);
    assert!(
        out.items_aggregated < out.items_ingested,
        "sampling must select a strict subset"
    );
    assert!(!out.windows.is_empty());
    assert_bit_identical(&out.windows, &reference);

    // And the estimates are honest: the exact oracle falls inside every
    // window's confidence interval.
    let exact = exact_window_sums(&items, &out.windows);
    for (w, exact_sum) in out.windows.iter().zip(exact) {
        let (lo, hi) = w.sum.interval();
        assert!(
            lo <= exact_sum && exact_sum <= hi,
            "{}: exact sum {exact_sum} outside [{lo}, {hi}]",
            w.window
        );
    }
}

#[test]
fn three_workers_match_single_process_merge_bit_for_bit_fraction() {
    // The fraction directive drives the capacity-summing union (the
    // adaptive-capacity merge path), distinct from the fixed-capacity
    // reservoir union above.
    let seed = RunSeed::new(21);
    let directive = SizingDirective::Fraction(0.2);
    let window = WindowSpec::tumbling_millis(1_000);
    let items = skewed_stream(5_000);
    let shards = partition(&items, seed);
    let reference = reference_windows(&shards, seed, directive, window);
    let out = distributed_run(shards, seed, directive, window);
    assert_eq!(out.items_ingested, items.len() as u64);
    assert_bit_identical(&out.windows, &reference);
}

#[test]
fn exact_directive_ships_statistics_and_matches_the_oracle() {
    let seed = RunSeed::new(3);
    let directive = SizingDirective::Everything;
    let window = WindowSpec::tumbling_millis(1_000);
    let items = skewed_stream(3_000);
    let shards = partition(&items, seed);
    let reference = reference_windows(&shards, seed, directive, window);
    let out = distributed_run(shards, seed, directive, window);

    assert_eq!(out.items_ingested, items.len() as u64);
    assert_eq!(
        out.items_aggregated, out.items_ingested,
        "everything means everything"
    );
    assert_bit_identical(&out.windows, &reference);
    let exact = exact_window_sums(&items, &out.windows);
    for (w, exact_sum) in out.windows.iter().zip(exact) {
        let error = (w.sum.value - exact_sum).abs();
        assert!(
            error <= exact_sum.abs() * 1e-9,
            "{}: exact-mode sum {} drifted from oracle {exact_sum}",
            w.window,
            w.sum.value
        );
    }
}

#[test]
fn worker_disconnect_mid_pane_degrades_instead_of_hanging() {
    let mut policy = FixedPerStratum(8);
    // Short fault windows so the run settles promptly: dead after 100ms
    // of silence, retired 200ms later, stragglers force-merged at 500ms.
    let fault = FaultPolicy::default()
        .with_heartbeat_interval(Duration::from_millis(50))
        .with_miss_budget(2)
        .with_backoff(Duration::from_millis(200))
        .with_pane_timeout(Duration::from_millis(500));
    let coordinator = StreamApprox::new(
        query().with_window(WindowSpec::tumbling_millis(1_000)),
        &mut policy,
    )
    .distributed(
        DistributedConfig::new(2)
            .with_timeout(Duration::from_secs(10))
            .with_fault_policy(fault),
    )
    .expect("bind loopback");
    let addr = coordinator.addr();

    // Worker 0 behaves; its windows must survive worker 1's death.
    let good = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("worker joins");
        let mut session = ApproxSession::from_engine(Box::new(engine));
        for i in 0..1_500i64 {
            session
                .push(StreamItem::new(
                    StratumId(0),
                    EventTime::from_millis(i),
                    1.0,
                ))
                .expect("in order");
        }
        session.finish()
    });

    // Worker 1 joins for real, then dies mid-frame: a valid header
    // promising a 64-byte digest, ten bytes of payload, and a dead
    // socket.
    let bad = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_message(
            &mut stream,
            &Message::HelloJoin {
                worker: 1,
                wants_results: false,
            },
        )
        .expect("join frame");
        let assign = read_message(&mut stream)
            .expect("readable")
            .expect("assigned");
        assert!(matches!(
            assign,
            Message::HelloAssign(Assignment { worker: 1, .. })
        ));
        let mut partial = Vec::from(MAGIC);
        partial.push(WIRE_VERSION);
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        stream.write_all(&partial).expect("partial frame");
    });
    bad.join().expect("bad worker thread");

    // With no replacement inside the backoff, the dead shard retires and
    // the run completes degraded instead of erroring or hanging.
    let started = Instant::now();
    let out = coordinator
        .finish()
        .expect("a lost worker degrades the run, it does not kill it");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "retirement must settle well inside the run timeout"
    );
    let _ = good.join().expect("good worker thread");

    // Worker 0's stream alone spans [0, 1500): two windows, both missing
    // worker 1's (never delivered) shard.
    assert_eq!(out.windows.len(), 2, "the watermark must keep advancing");
    for w in &out.windows {
        assert!(w.degraded, "{}: window must be stamped degraded", w.window);
        assert!(
            w.lost_items > 0,
            "{}: the dead shard's mass must be accounted as lost",
            w.window
        );
        let (lo, hi) = w.mean.interval();
        assert!(lo <= w.mean.value && w.mean.value <= hi);
    }
}

/// The in-process counterpart of [`distributed_run`]: the sharded engine
/// at N = K over the whole stream, which it routes itself.
fn sharded_run(
    items: &[StreamItem<f64>],
    seed: RunSeed,
    directive: SizingDirective,
    window: WindowSpec,
) -> RunOutput {
    let mut session = StreamApprox::new(query().with_window(window), policy_for(directive))
        .sharded(
            ShardedConfig::new(WORKERS)
                .with_seed(seed)
                .with_expected_pane_items(EXPECTED_PANE_ITEMS),
        )
        .start();
    session
        .push_batch(items.iter().copied())
        .expect("the stream is event-time ordered");
    session.finish()
}

/// Distributed K = 3 equals sharded N = 3 bit for bit: both tiers close
/// their panes through one barrier that merges the same per-shard
/// samplers in the same order under the pane-start-seeded RNG. Both also
/// match the hand-built single-process oracle.
fn assert_tiers_agree(directive: SizingDirective) {
    let seed = RunSeed::new(11);
    let window = WindowSpec::sliding_millis(2_000, 1_000);
    let items = skewed_stream(6_000);
    let shards = partition(&items, seed);
    let reference = reference_windows(&shards, seed, directive, window);
    let distributed = distributed_run(shards, seed, directive, window);
    let sharded = sharded_run(&items, seed, directive, window);
    assert!(!sharded.windows.is_empty());
    assert_eq!(
        format!("{:?}", distributed.windows),
        format!("{:?}", sharded.windows),
        "{directive:?}: distributed K=3 and sharded N=3 disagree"
    );
    assert_eq!(distributed.items_ingested, sharded.items_ingested);
    assert_eq!(distributed.items_aggregated, sharded.items_aggregated);
    assert_bit_identical(&distributed.windows, &reference);
}

#[test]
fn distributed_equals_sharded_bit_for_bit_fraction() {
    assert_tiers_agree(SizingDirective::Fraction(0.2));
}

#[test]
fn distributed_equals_sharded_bit_for_bit_per_stratum() {
    assert_tiers_agree(SizingDirective::PerStratum(24));
}

#[test]
fn distributed_equals_sharded_bit_for_bit_shared_total() {
    assert_tiers_agree(SizingDirective::SharedTotal(60));
}

#[test]
fn distributed_equals_sharded_bit_for_bit_everything() {
    assert_tiers_agree(SizingDirective::Everything);
}

const DIGEST_PANES: i64 = 4;
const DIGEST_PANE_MS: i64 = 100;

/// Every digest one K = 1 worker ships for `items_per_pane` items per
/// 100 ms pane over three strata under `directive`, each with the size of
/// its frame, read by a coordinator spoken by hand.
fn worker_digests(directive: SizingDirective, items_per_pane: i64) -> Vec<(usize, DigestPayload)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let worker = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("worker joins");
        let mut session = ApproxSession::from_engine(Box::new(engine));
        let items = (0..DIGEST_PANES * items_per_pane).map(|i| {
            let time = EventTime::from_millis(i * DIGEST_PANE_MS / items_per_pane);
            StreamItem::new(StratumId((i % 3) as u32), time, (i % 17) as f64)
        });
        session.push_batch(items).expect("in order");
        session.finish()
    });
    let (mut stream, _) = listener.accept().expect("the worker dials");
    let hello = read_message(&mut stream)
        .expect("readable")
        .expect("a hello");
    assert!(matches!(hello, Message::HelloJoin { worker: 0, .. }));
    let assign = Assignment {
        worker: 0,
        num_workers: 1,
        seed: RunSeed::new(5),
        directive,
        pane_interval_ms: DIGEST_PANE_MS,
        expected_pane_items: items_per_pane as u64,
        window: WindowSpec::tumbling_millis(DIGEST_PANE_MS),
        confidence: Confidence::P95,
        heartbeat_interval_ms: 0,
    };
    write_message(&mut stream, &Message::HelloAssign(assign)).expect("assignment");
    let mut digests = Vec::new();
    loop {
        let message = read_message(&mut stream)
            .expect("readable")
            .expect("a goodbye ends the run");
        match message {
            Message::PaneDigest(digest) => {
                let mut frame = Vec::new();
                write_message(&mut frame, &Message::PaneDigest(digest.clone())).expect("frame");
                digests.push((frame.len(), digest.payload));
            }
            Message::Shutdown { worker: 0 } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    let out = worker.join().expect("worker thread");
    assert_eq!(out.items_ingested, (DIGEST_PANES * items_per_pane) as u64);
    digests
}

/// Under a fraction budget the coordinator's merge never draws, so a
/// worker ships its pane's per-stratum statistics: a frame whose size
/// the strata set, not the sampled items (a sampled digest of 30,000
/// items per pane would carry some 6,000 values, about 48 KB).
#[test]
fn fraction_digests_are_statistics_whose_size_the_strata_set() {
    for items_per_pane in [300, 30_000] {
        let digests = worker_digests(SizingDirective::Fraction(0.2), items_per_pane);
        assert_eq!(digests.len(), DIGEST_PANES as usize);
        for (bytes, payload) in digests {
            let DigestPayload::Stats(stats) = payload else {
                panic!("a fraction digest ships statistics, got {payload:?}");
            };
            assert_eq!(stats.len(), 3);
            let population: u64 = stats.iter().map(|s| s.population).sum();
            assert_eq!(population, items_per_pane as u64);
            assert!(
                bytes < 256,
                "a {bytes}-byte digest at {items_per_pane} items per pane"
            );
        }
    }
}

/// A fixed budget's merge draws a weighted union of the workers' samples,
/// so its digests keep carrying them; without sampling, the statistics
/// are exact.
#[test]
fn fixed_budgets_ship_samples_and_everything_ships_statistics() {
    for directive in [
        SizingDirective::PerStratum(24),
        SizingDirective::SharedTotal(60),
    ] {
        for (_, payload) in worker_digests(directive, 300) {
            assert!(
                matches!(payload, DigestPayload::Sampled(_)),
                "{directive:?} ships samples"
            );
        }
    }
    for (_, payload) in worker_digests(SizingDirective::Everything, 300) {
        let DigestPayload::Stats(stats) = payload else {
            panic!("an exact digest ships statistics");
        };
        assert_eq!(stats.iter().map(|s| s.sample_size()).sum::<u64>(), 300);
    }
}
