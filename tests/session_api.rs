//! The incremental session API: early window observability (the
//! unbounded-stream property the one-shot API could not express),
//! ordering enforcement, status reporting, the aggregated consumer-path
//! engine, and consumer-fed sessions.

use sa_aggregator::{replay_into, Consumer, Partitioner, Producer, Topic};
use sa_batched::Cluster;
use sa_types::{EventTime, SaError, SessionStatus, StratumId, StreamItem, WindowSpec};
use sa_workloads::Mix;
use streamapprox::{
    run_batched, AggregatedConfig, ApproxSession, BatchedConfig, BatchedSystem, DistributedConfig,
    FixedFraction, PipelinedConfig, PipelinedSystem, Query, ShardedConfig, StreamApprox,
};

fn items(seed: u64) -> Vec<StreamItem<f64>> {
    Mix::gaussian([3_000.0, 800.0, 80.0]).generate(5_000, seed)
}

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v).with_window(WindowSpec::sliding_millis(2_000, 1_000))
}

fn batched_config() -> BatchedConfig {
    BatchedConfig::new(Cluster::new(2)).with_batch_interval_ms(500)
}

type Start = fn(&mut FixedFraction) -> ApproxSession<'_, f64>;

/// A fresh session over `query()` on each engine that cuts panes with the
/// shared pane driver.
fn push_driven_engines() -> [(&'static str, Start); 3] {
    fn aggregated(policy: &mut FixedFraction) -> ApproxSession<'_, f64> {
        StreamApprox::new(query(), policy).start()
    }
    fn batched(policy: &mut FixedFraction) -> ApproxSession<'_, f64> {
        StreamApprox::new(query(), policy)
            .batched(batched_config())
            .start()
    }
    fn sharded(policy: &mut FixedFraction) -> ApproxSession<'_, f64> {
        StreamApprox::new(query(), policy)
            .sharded(ShardedConfig::new(2))
            .start()
    }
    [
        ("aggregated", aggregated),
        ("batched", batched),
        ("sharded", sharded),
    ]
}

/// The headline property: a window result is observable through
/// `poll_windows()` while the session still has input ahead of it — no
/// "wait for the whole Vec".
#[test]
fn windows_are_observable_before_the_stream_ends() {
    let stream = items(21);
    let total = stream.len();
    let mut policy = FixedFraction(0.4);
    let mut session = StreamApprox::new(query(), &mut policy)
        .batched(batched_config().with_system(BatchedSystem::StreamApprox))
        .start();

    // Push only items from the first ~2.1 seconds of the 5-second stream;
    // well over half of it is still unpushed, but the [0s,2s) window has
    // closed.
    let cutoff = EventTime::from_millis(2_100);
    let mut fed = 0usize;
    let mut early_windows = Vec::new();
    for item in &stream {
        if item.time >= cutoff {
            break;
        }
        session.push(*item).expect("in order");
        fed += 1;
        early_windows.extend(session.poll_windows());
    }
    assert!(fed < total / 2, "cutoff should leave most of the stream");
    assert!(
        !early_windows.is_empty(),
        "no window observable before end of input"
    );
    for w in &early_windows {
        assert!(w.window.end <= cutoff, "window {} not closed yet", w.window);
        let (lo, hi) = w.mean.interval();
        assert!(lo <= hi);
    }

    // Feeding the rest and finishing yields exactly the one-shot result.
    session
        .push_batch(stream.iter().skip(fed).cloned())
        .expect("in order");
    let late = session.finish();
    let mut all = early_windows;
    all.extend(late.windows);
    let oneshot = run_batched(
        &batched_config(),
        BatchedSystem::StreamApprox,
        &query(),
        &mut FixedFraction(0.4),
        stream,
    );
    assert_eq!(all, oneshot.windows, "early polling changed the results");
    assert_eq!(late.items_ingested, oneshot.items_ingested);
    assert_eq!(late.items_aggregated, oneshot.items_aggregated);
}

/// The same unbounded-stream property on the pipelined engine, whose
/// stages run concurrently: windows surface while the source is open.
#[test]
fn pipelined_windows_surface_while_the_stream_is_open() {
    let stream = items(22);
    let mut policy = FixedFraction(0.5);
    let mut session = StreamApprox::new(query(), &mut policy)
        .pipelined(PipelinedConfig::new().with_system(PipelinedSystem::StreamApprox))
        .start();
    let cutoff = EventTime::from_millis(4_000);
    let mut pushed_all = true;
    for item in &stream {
        if item.time >= cutoff {
            pushed_all = false;
            break;
        }
        session.push(*item).expect("in order");
    }
    assert!(!pushed_all, "stream should extend past the cutoff");
    // The topology processes asynchronously: wait (bounded) for the first
    // closed window to cross the sink.
    let mut early = Vec::new();
    for _ in 0..2_000 {
        early.extend(session.poll_windows());
        if !early.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        !early.is_empty(),
        "no pipelined window surfaced while input remained"
    );
    let _ = session.finish();
}

/// The aggregated consumer-path engine: incremental and chunked feeding
/// are bit-for-bit identical, and the sampled answer tracks the truth.
#[test]
fn aggregated_engine_is_chunk_invariant_and_accurate() {
    let stream = items(23);
    let run = |chunk: usize| {
        let mut policy = FixedFraction(0.3);
        let mut session = StreamApprox::new(query(), &mut policy)
            .aggregated(AggregatedConfig::new().with_seed(7u64))
            .start();
        let mut windows = Vec::new();
        for chunk in stream.chunks(chunk) {
            session.push_batch(chunk.iter().cloned()).expect("in order");
            windows.extend(session.poll_windows());
        }
        let out = session.finish();
        windows.extend(out.windows.clone());
        (windows, out.items_ingested, out.items_aggregated)
    };
    let (one, ingested_one, aggregated_one) = run(1);
    let (chunked, ingested_chunked, aggregated_chunked) = run(97);
    assert_eq!(one, chunked, "chunking changed aggregated-engine results");
    assert_eq!(ingested_one, ingested_chunked);
    assert_eq!(aggregated_one, aggregated_chunked);
    assert!(aggregated_one < ingested_one, "sampling actually happened");

    // Accuracy: compare against batched native ground truth per window.
    let exact = run_batched(
        &batched_config(),
        BatchedSystem::Native,
        &query(),
        &mut FixedFraction(1.0),
        stream,
    );
    for w in &one {
        let truth = exact
            .windows
            .iter()
            .find(|e| e.window == w.window)
            .expect("window present in native run");
        if truth.mean.value != 0.0 {
            let loss = sa_estimate::accuracy_loss(w.mean.value, truth.mean.value);
            assert!(loss < 0.2, "{}: loss {loss}", w.window);
        }
    }
}

/// A session fed straight from an aggregator consumer — the deployment
/// loop that used to be ad-hoc glue (poll everything, sort, run one-shot)
/// — produces exactly the one-shot result.
#[test]
fn consumer_fed_session_matches_oneshot() {
    let mix = Mix::gaussian([1_000.0, 200.0, 20.0]);
    let substreams: Vec<_> = mix
        .substreams()
        .iter()
        .map(|s| s.generate(EventTime::from_millis(0), 2_000, 7))
        .collect();
    let merged = sa_aggregator::merge_by_time(substreams);
    let total = merged.len();

    // One partition: the aggregator's job in the paper is to combine the
    // sub-streams into a single time-ordered input stream (§2.1).
    let topic = Topic::new("input", 1);
    let mut producer = Producer::new(topic.clone(), Partitioner::RoundRobin);
    replay_into(merged.clone(), &mut producer, 200);

    let mut policy = FixedFraction(0.5);
    let mut session = StreamApprox::new(
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000)),
        &mut policy,
    )
    .batched(batched_config().with_system(BatchedSystem::StreamApprox))
    .start();
    let mut consumer = Consumer::whole_topic(topic);
    let mut windows = Vec::new();
    loop {
        let ingest = session
            .ingest_consumer(&mut consumer, 5)
            .expect("engine alive");
        assert_eq!(
            ingest.dropped_late, 0,
            "single-partition replay is time-ordered"
        );
        windows.extend(session.poll_windows());
        if ingest.ingested == 0 && consumer.is_caught_up() {
            break;
        }
    }
    let out = session.finish();
    assert_eq!(out.items_ingested, total as u64);
    windows.extend(out.windows);

    let oneshot = run_batched(
        &batched_config(),
        BatchedSystem::StreamApprox,
        &Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000)),
        &mut FixedFraction(0.5),
        merged,
    );
    assert_eq!(windows, oneshot.windows);
}

/// A consumer whose delivery interleaves partitions out of event-time
/// order cannot have its already-polled items retried, so the session
/// drops the late ones explicitly and keeps the rest — no silent loss of
/// in-order items, and the run completes.
#[test]
fn consumer_late_items_are_dropped_not_lost() {
    // Two partitions round-robin: per-item messages land alternately, so
    // a whole-topic consumer sees times interleaved out of order.
    let topic = Topic::new("ragged", 2);
    let mut producer = Producer::new(topic.clone(), Partitioner::RoundRobin);
    for ms in [0i64, 500, 100, 600, 200, 700] {
        producer.send(vec![StreamItem::new(
            StratumId(0),
            EventTime::from_millis(ms),
            1.0f64,
        )]);
    }
    let mut policy = FixedFraction(1.0);
    let mut session = StreamApprox::new(
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000)),
        &mut policy,
    )
    .start();
    let mut consumer = Consumer::whole_topic(topic);
    let mut total = sa_types::IngestCounters::default();
    loop {
        // One message per poll: the fair rotation alternates partitions,
        // so delivery interleaves 0, 500, 100, ... — the 100 is late.
        let ingest = session
            .ingest_consumer(&mut consumer, 1)
            .expect("engine alive");
        total.absorb(ingest);
        if ingest.ingested == 0 && consumer.is_caught_up() {
            break;
        }
    }
    assert_eq!(total.offered(), 6, "every polled item accounted for");
    assert!(
        total.dropped_late > 0,
        "interleaved partitions must produce late items"
    );
    // The per-call deltas and the session's run-wide accounting agree.
    assert_eq!(session.status().ingest, total);
    let out = session.finish();
    assert_eq!(out.items_ingested, total.ingested);
}

/// A single item with a far-future timestamp must cost O(1) work, not one
/// empty pane per elapsed interval — the live API accepts untrusted
/// timestamps, so a year-long event-time gap cannot hang the session or
/// flood it with empty windows. Incremental and one-shot stay identical.
#[test]
fn far_future_item_is_bounded_work_on_every_engine() {
    let mut stream: Vec<StreamItem<f64>> = (0..2_000)
        .map(|ms| StreamItem::new(StratumId(0), EventTime::from_millis(ms), 1.0))
        .collect();
    // ~32 years of event time later.
    stream.push(StreamItem::new(
        StratumId(0),
        EventTime::from_millis(1_000_000_000_000),
        5.0,
    ));

    // Batched: session == one-shot across the gap, few windows, fast.
    let mut policy = FixedFraction(0.5);
    let mut session = StreamApprox::new(query(), &mut policy)
        .batched(batched_config().with_system(BatchedSystem::StreamApprox))
        .start();
    session
        .push_batch(stream.iter().copied())
        .expect("in order");
    let out = session.finish();
    assert!(
        out.windows.len() < 20,
        "gap materialized {} windows",
        out.windows.len()
    );
    let oneshot = run_batched(
        &batched_config(),
        BatchedSystem::StreamApprox,
        &query(),
        &mut FixedFraction(0.5),
        stream.clone(),
    );
    assert_eq!(out.windows, oneshot.windows);
    // The data at both edges of the gap is still answered.
    assert_eq!(out.items_ingested, 2_001);

    // Aggregated: same bounded behavior.
    let mut p2 = FixedFraction(0.5);
    let mut agg = StreamApprox::new(query(), &mut p2).start();
    agg.push_batch(stream.iter().copied()).expect("in order");
    let agg_out = agg.finish();
    assert!(agg_out.windows.len() < 20);
    assert_eq!(agg_out.items_ingested, 2_001);
}

/// The other edge of "untrusted timestamps": event times so close to the
/// ends of `i64` that pane or window arithmetic on them would overflow.
/// Such an item is refused with a typed error — it is not ingested, and
/// the session keeps accepting in-range items — while a representable
/// pair, however far apart, costs bounded work like any other gap. Never
/// a panic, a wrapped subtraction or a pane-by-pane walk: on every
/// push-driven engine, per item and chunked, in debug and release builds.
#[test]
fn extreme_timestamps_are_refused_or_bounded_on_every_engine() {
    use std::time::{Duration, Instant};

    let engines = push_driven_engines();
    // (first, second, which of the two a per-item push must accept).
    let pairs = [
        (
            -5_000_000_000_000_000_000,
            5_000_000_000_000_000_000,
            [true, true],
        ),
        (0, i64::MAX, [true, false]),
        (i64::MIN, i64::MIN + 10, [false, false]),
    ];
    let at = |ms: i64| StreamItem::new(StratumId(0), EventTime::from_millis(ms), 1.0);

    for (name, start) in engines {
        for (first, second, in_range) in pairs {
            for chunked in [false, true] {
                let case = format!("{name} ({first}, {second}) chunked={chunked}");
                let began = Instant::now();
                let mut policy = FixedFraction(0.5);
                let mut session = start(&mut policy);
                let accepted = if chunked {
                    // A chunk holding an unrepresentable time is refused
                    // whole, before any of it is ingested.
                    match session.push_batch([at(first), at(second)]) {
                        Ok(delta) => {
                            assert_eq!(in_range, [true, true], "{case}");
                            delta.ingested
                        }
                        Err(err) => {
                            assert_ne!(in_range, [true, true], "{case}");
                            assert!(matches!(err, SaError::InvalidConfig(_)), "{case}: {err}");
                            0
                        }
                    }
                } else {
                    let mut accepted = 0;
                    for (ms, ok) in [(first, in_range[0]), (second, in_range[1])] {
                        match session.push(at(ms)) {
                            Ok(()) => {
                                assert!(ok, "{case}: {ms} must be refused");
                                accepted += 1;
                            }
                            Err(err) => {
                                assert!(!ok, "{case}: {ms} must be accepted, got {err}");
                                assert!(matches!(err, SaError::InvalidConfig(_)), "{case}: {err}");
                            }
                        }
                    }
                    accepted
                };
                // A refusal leaves the session usable.
                assert_eq!(session.status().ingest.ingested, accepted, "{case}");
                let later = session.watermark().map_or(10, |w| w.as_millis() + 10);
                session
                    .push(at(later))
                    .unwrap_or_else(|err| panic!("{case}: in-range {later} refused: {err}"));
                let out = session.finish();
                assert_eq!(out.items_ingested, accepted + 1, "{case}");
                assert!(
                    out.windows.len() < 20,
                    "{case}: {} windows",
                    out.windows.len()
                );
                assert!(
                    began.elapsed() < Duration::from_secs(1),
                    "{case}: took {:?}",
                    began.elapsed()
                );
            }
        }
    }
}

/// Event time has no privileged zero: a stream that lies before it, or
/// straddles it, is the same stream shifted. The unshifted stream begins
/// inside `[0, slide)`, so its first window is `[0, size)` and every
/// window of a shifted run must be that run's window, moved — same count,
/// same order, same estimates to the bit.
#[test]
fn a_stream_before_time_zero_is_the_same_stream_shifted() {
    let engines = push_driven_engines();
    let stream = Mix::gaussian([3_000.0, 800.0, 80.0]).generate(10_000, 33);
    assert!(stream[0].time < EventTime::from_millis(1_000));
    for (name, start) in engines {
        let run = |shift_ms: i64, chunked: bool| {
            let shifted = stream
                .iter()
                .map(|item| StreamItem::new(item.stratum, item.time + shift_ms, item.value));
            let mut policy = FixedFraction(0.5);
            let mut session = start(&mut policy);
            if chunked {
                session.push_batch(shifted).expect("in order");
            } else {
                for item in shifted {
                    session.push(item).expect("in order");
                }
            }
            let out = session.finish();
            assert_eq!(out.items_ingested, stream.len() as u64, "{name} {shift_ms}");
            out.windows
        };
        let reference = run(0, true);
        assert_eq!(reference.len(), 10, "{name}");
        assert_eq!(reference[0].window.start, EventTime::from_millis(0));
        // Wholly before zero (ending at it), and straddling it.
        for shift_ms in [-10_000, -5_000] {
            for chunked in [true, false] {
                let mut moved = reference.clone();
                for w in &mut moved {
                    w.window.start = w.window.start + shift_ms;
                    w.window.end = w.window.end + shift_ms;
                }
                assert_eq!(
                    run(shift_ms, chunked),
                    moved,
                    "{name} shifted {shift_ms} chunked={chunked}"
                );
            }
        }
    }
}

/// A pane is counted towards the windows containing its start, so a pane
/// interval must tile the window: divide its size and its slide. One that
/// does not is refused — from the first push on local sessions, at start
/// on the distributed tier — instead of answering with whole panes on the
/// wrong side of a window bound.
#[test]
fn a_pane_interval_that_does_not_tile_the_window_is_refused() {
    let at = |ms: i64| StreamItem::new(StratumId(0), EventTime::from_millis(ms), 1.0);
    let refused = |err: SaError, case: &str| {
        assert!(matches!(err, SaError::InvalidConfig(_)), "{case}: {err}");
        assert!(err.to_string().contains("700 ms"), "{case}: {err}");
    };

    let mut policy = FixedFraction(1.0);
    let mut aggregated = StreamApprox::new(query(), &mut policy)
        .aggregated(AggregatedConfig::new().with_pane_interval_ms(700))
        .start();
    refused(aggregated.push(at(0)).unwrap_err(), "aggregated push");
    refused(
        aggregated.push_batch([at(0), at(1)]).unwrap_err(),
        "aggregated push_batch",
    );
    let out = aggregated.finish();
    assert_eq!((out.items_ingested, out.windows.len()), (0, 0));

    let mut policy = FixedFraction(1.0);
    let mut sharded = StreamApprox::new(query(), &mut policy)
        .sharded(ShardedConfig::new(2).with_pane_interval_ms(700))
        .start();
    refused(sharded.push(at(0)).unwrap_err(), "sharded push");
    refused(
        sharded.push_batch([at(0), at(1)]).unwrap_err(),
        "sharded push_batch",
    );
    assert_eq!(sharded.finish().items_ingested, 0);

    let mut policy = FixedFraction(1.0);
    let mut batched = StreamApprox::new(query(), &mut policy)
        .batched(BatchedConfig::new(Cluster::new(2)).with_batch_interval_ms(700))
        .start();
    refused(batched.push(at(0)).unwrap_err(), "batched push");
    assert_eq!(batched.finish().items_ingested, 0);

    let mut policy = FixedFraction(1.0);
    let distributed = StreamApprox::new(query(), &mut policy)
        .distributed(DistributedConfig::new(1).with_pane_interval_ms(700));
    match distributed {
        Err(err) => refused(err, "distributed start"),
        Ok(_) => panic!("the distributed tier accepted a 700 ms pane under 2 s / 1 s"),
    }

    // Intervals that do tile it are accepted: 500 and 250 under 2 s / 1 s.
    for ms in [500, 250] {
        let mut policy = FixedFraction(1.0);
        let mut session = StreamApprox::new(query(), &mut policy)
            .aggregated(AggregatedConfig::new().with_pane_interval_ms(ms))
            .start();
        session.push(at(0)).expect("tiles the window");
        assert_eq!(session.finish().items_ingested, 1);
    }
}

/// A slide that does not divide the size: the default pane is their
/// greatest common divisor, not the slide, so a window is made of whole
/// panes and a fully sampled run counts every window exactly.
#[test]
fn a_window_whose_slide_does_not_divide_its_size_is_counted_exactly() {
    let spec = WindowSpec::sliding_millis(2_500, 1_000);
    let query = || Query::new(|v: &f64| *v).with_window(spec);
    // One item a millisecond for ten seconds, each worth its own time.
    let stream: Vec<StreamItem<f64>> = (0..10_000)
        .map(|ms| {
            StreamItem::new(
                StratumId(ms as u32 % 3),
                EventTime::from_millis(ms),
                ms as f64,
            )
        })
        .collect();
    let check = |name: &str, windows: Vec<streamapprox::WindowResult>| {
        assert_eq!(windows.len(), 10, "{name}");
        for w in &windows {
            let (start, end) = (w.window.start.as_millis(), w.window.end.as_millis());
            assert_eq!(end - start, 2_500, "{name}");
            let inside = start.max(0)..end.min(10_000);
            let count = (inside.end - inside.start) as u64;
            let sum: f64 = inside.map(|ms| ms as f64).sum();
            assert_eq!(w.sum.population_size, count, "{name} {}", w.window);
            assert_eq!(w.sum.sample_size, count, "{name} {}", w.window);
            assert_eq!(w.sum.bound.margin(), 0.0, "{name} {}", w.window);
            assert!(
                (w.sum.value - sum).abs() <= 1e-6 * sum,
                "{name} {}",
                w.window
            );
        }
    };

    let mut policy = FixedFraction(1.0);
    let mut aggregated = StreamApprox::new(query(), &mut policy).start();
    aggregated
        .push_batch(stream.iter().copied())
        .expect("in order");
    check("aggregated", aggregated.finish().windows);

    let mut policy = FixedFraction(1.0);
    let mut sharded = StreamApprox::new(query(), &mut policy)
        .sharded(ShardedConfig::new(2))
        .start();
    sharded
        .push_batch(stream.iter().copied())
        .expect("in order");
    check("sharded", sharded.finish().windows);

    let mut policy = FixedFraction(1.0);
    let mut batched = StreamApprox::new(query(), &mut policy)
        .batched(batched_config())
        .start();
    batched
        .push_batch(stream.iter().copied())
        .expect("in order");
    check("batched", batched.finish().windows);

    let mut policy = FixedFraction(1.0);
    let mut pipelined = StreamApprox::new(query(), &mut policy)
        .pipelined(PipelinedConfig::new())
        .start();
    pipelined
        .push_batch(stream.iter().copied())
        .expect("in order");
    check("pipelined", pipelined.finish().windows);
}

/// Ordering is enforced uniformly at the session layer, for every engine.
/// `push_batch` drops late items and continues — one straggler no longer
/// aborts the rest of the batch — with the same accounting as
/// `ingest_consumer`, and the kept subsequence behaves exactly as if the
/// clean stream had been pushed alone.
#[test]
fn push_batch_drops_late_items_and_continues() {
    let at = |ms: i64, v: f64| StreamItem::new(StratumId(0), EventTime::from_millis(ms), v);
    // Two stragglers interleaved: 50 is behind 100, and 150 behind 200.
    let ragged = vec![
        at(0, 1.0),
        at(100, 2.0),
        at(50, -1.0),
        at(200, 3.0),
        at(150, -2.0),
        at(2_300, 4.0),
    ];
    let clean: Vec<_> = ragged.iter().copied().filter(|i| i.value > 0.0).collect();

    let run = |items: &[StreamItem<f64>]| {
        let mut policy = FixedFraction(1.0);
        let mut session = StreamApprox::new(query(), &mut policy).start();
        let delta = session
            .push_batch(items.iter().copied())
            .expect("engine up");
        (delta, session.status(), session.finish())
    };
    let (delta, status, out) = run(&ragged);
    assert_eq!(delta.ingested, 4);
    assert_eq!(delta.dropped_late, 2);
    assert_eq!(status.ingest, delta, "delta must equal run-wide accounting");
    assert_eq!(status.ingest.offered(), ragged.len() as u64);
    assert_eq!(status.watermark, Some(EventTime::from_millis(2_300)));

    let (clean_delta, clean_status, clean_out) = run(&clean);
    assert_eq!(clean_delta.ingested, 4);
    assert_eq!(clean_delta.dropped_late, 0);
    assert_eq!(clean_status.watermark, status.watermark);
    assert_eq!(
        out.windows, clean_out.windows,
        "dropped stragglers leaked into the windows"
    );

    // A fully late batch is a no-op, not an error, and the session stays
    // usable afterwards.
    let mut policy = FixedFraction(1.0);
    let mut session = StreamApprox::new(query(), &mut policy).start();
    session.push(at(1_000, 1.0)).expect("in order");
    let delta = session
        .push_batch(vec![at(10, 0.0), at(20, 0.0)])
        .expect("late is not an error");
    assert_eq!(delta.ingested, 0);
    assert_eq!(delta.dropped_late, 2);
    session.push(at(1_001, 1.0)).expect("still usable");
    let _ = session.finish();
}

#[test]
fn out_of_order_items_are_rejected_on_every_engine() {
    let late = StreamItem::new(StratumId(0), EventTime::from_millis(10), 1.0f64);
    let early = StreamItem::new(StratumId(0), EventTime::from_millis(5), 2.0f64);

    let mut p1 = FixedFraction(0.5);
    let mut batched = StreamApprox::new(query(), &mut p1)
        .batched(batched_config().with_system(BatchedSystem::StreamApprox))
        .start();
    batched.push(late).expect("in order");
    assert!(matches!(
        batched.push(early),
        Err(SaError::OutOfOrder { .. })
    ));
    let _ = batched.finish();

    let mut p2 = FixedFraction(0.5);
    let mut pipelined = StreamApprox::new(query(), &mut p2)
        .pipelined(PipelinedConfig::new().with_system(PipelinedSystem::StreamApprox))
        .start();
    pipelined.push(late).expect("in order");
    assert!(matches!(
        pipelined.push(early),
        Err(SaError::OutOfOrder { .. })
    ));
    let _ = pipelined.finish();

    let mut p3 = FixedFraction(0.5);
    let mut aggregated = StreamApprox::new(query(), &mut p3).start();
    aggregated.push(late).expect("in order");
    assert!(matches!(
        aggregated.push(early),
        Err(SaError::OutOfOrder { .. })
    ));
    let _ = aggregated.finish();
}

/// The status snapshot follows the session through its life.
#[test]
fn status_reflects_session_progress() {
    let mut policy = FixedFraction(1.0);
    let mut session = StreamApprox::new(
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000)),
        &mut policy,
    )
    .batched(batched_config().with_system(BatchedSystem::Native))
    .start();
    assert_eq!(
        session.status(),
        SessionStatus {
            items_pushed: 0,
            windows_completed: 0,
            watermark: None,
            ingest: sa_types::IngestCounters::default(),
            shards: Vec::new(),
            workers: Vec::new(),
            last_checkpoint_pane: None,
            items_since_checkpoint: 0,
            snapshot_bytes: 0,
            degraded_panes: 0,
            lost_items: 0,
        }
    );
    for ms in [0i64, 600, 1_200, 2_400] {
        session
            .push(StreamItem::new(
                StratumId(0),
                EventTime::from_millis(ms),
                1.0,
            ))
            .expect("in order");
    }
    let polled = session.poll_windows();
    let status = session.status();
    assert_eq!(status.items_pushed, 4);
    assert_eq!(status.watermark, Some(EventTime::from_millis(2_400)));
    assert_eq!(status.windows_completed, polled.len() as u64);
    assert!(!polled.is_empty());
    let _ = session.finish();
}

/// Debug coverage for the builder-facing configuration types, so test
/// failures can print them.
#[test]
fn configs_and_query_are_debuggable() {
    let q = format!("{:?}", query());
    assert!(q.contains("Query") && q.contains("window"));
    let b = format!("{:?}", batched_config());
    assert!(b.contains("BatchedConfig") && b.contains("batch_interval_ms"));
    let p = format!("{:?}", PipelinedConfig::new());
    assert!(p.contains("PipelinedConfig") && p.contains("expected_pane_items"));
    let a = format!("{:?}", AggregatedConfig::default());
    assert!(a.contains("AggregatedConfig") && a.contains("pane_interval_ms"));
    let mut policy = FixedFraction(0.5);
    let builder = StreamApprox::new(query(), &mut policy);
    assert!(format!("{builder:?}").contains("StreamApprox"));
}
