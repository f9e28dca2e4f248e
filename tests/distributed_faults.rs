//! Fault injection for the self-healing distributed tier (ISSUE:
//! supervision, heartbeat-driven failure detection, and bounded-error
//! degraded merges).
//!
//! The claims under test, in order of strength:
//!
//! 1. The supervision machinery is *free* when nothing fails: a healthy
//!    run under aggressive fault windows is bit-identical run to run and
//!    never stamps a window degraded.
//! 2. Killing a worker and handing its shard to a replacement
//!    ([`rejoin_worker`] + checkpoint handoff + log replay) recovers
//!    **exactly-once**: the stitched run equals the uninterrupted run
//!    bit for bit, and the respawn is visible in the coordinator's
//!    status.
//! 3. A worker that dies for good degrades the run instead of killing
//!    it: `finish` returns promptly with windows stamped degraded, the
//!    lost mass accounted, and widened confidence intervals that still
//!    cover the true answer.
//! 4. No single connection can stall the service: a client that wedges
//!    before its hello, a live straggler that never delivers, and
//!    hostile frames on a joined connection all cost at most one shard,
//!    never the session.
//!
//! Faults are injected deterministically — sockets severed at chosen
//! item counts, protocol spoken by hand — so every scenario is
//! reproducible.

use sa_aggregator::{Consumer, Partitioner, Producer, Topic};
use sa_net::frame::{read_message, write_message};
use sa_net::{Assignment, Digest, DigestPayload, Heartbeat, Message};
use sa_types::{
    EventTime, FaultPolicy, IngestCounters, RunSeed, StratifiedSample, StratumId, StreamItem,
    Window, WindowSpec, WorkerHealth,
};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use streamapprox::{
    connect_worker, rejoin_worker, ApproxSession, DistributedConfig, DistributedSession,
    FixedPerStratum, Query, RecordCodec, RunOutput, StreamApprox, WindowResult,
};

const WORKERS: u32 = 2;
const ITEMS: i64 = 6_000;
const WINDOW_MS: i64 = 1_000;

/// One item per millisecond, two strata at very different scales, with
/// deterministic within-stratum variance (so finite-population variance
/// — and with it interval widening — is nonzero) and a fixed pattern (so
/// true per-window sums are exact arithmetic, computed by [`truth`]).
fn stream() -> Vec<StreamItem<f64>> {
    (0..ITEMS)
        .map(|i| {
            let (stratum, value) = if i % 100 == 99 {
                (StratumId(1), 50.0 + (i % 7) as f64)
            } else {
                (StratumId(0), 2.0 + (i % 5) as f64 * 0.25)
            };
            StreamItem::new(stratum, EventTime::from_millis(i), value)
        })
        .collect()
}

/// The oracle: exact per-window sums of [`stream`].
fn truth() -> BTreeMap<i64, f64> {
    let mut sums = BTreeMap::new();
    for item in stream() {
        *sums
            .entry(item.time.as_millis() / WINDOW_MS * WINDOW_MS)
            .or_insert(0.0) += item.value;
    }
    sums
}

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(WINDOW_MS))
}

/// Tight but not hair-trigger fault windows: fast enough that every
/// scenario settles in test time, slow enough that a healthy loopback
/// worker never trips them.
fn fast_fault() -> FaultPolicy {
    FaultPolicy::default()
        .with_heartbeat_interval(Duration::from_millis(40))
        .with_miss_budget(5)
        .with_pane_timeout(Duration::from_millis(800))
        .with_backoff(Duration::from_millis(300))
}

fn coordinator(fault: FaultPolicy, policy: &mut FixedPerStratum) -> DistributedSession {
    StreamApprox::new(query(), policy)
        .distributed(
            DistributedConfig::new(WORKERS)
                .with_seed(RunSeed::new(97))
                .with_expected_pane_items(1_000)
                .with_timeout(Duration::from_secs(20))
                .with_fault_policy(fault),
        )
        .expect("bind loopback")
}

/// Publishes the stream round-robin over one partition per worker, so
/// each worker's shard replays in event-time order.
fn publish() -> Arc<Topic<f64>> {
    let topic = Topic::new("faulted-events", WORKERS as usize);
    let mut producer = Producer::new(topic.clone(), Partitioner::RoundRobin);
    for batch in stream().chunks(128) {
        producer.send(batch.to_vec());
    }
    topic
}

/// A healthy worker: joins, replays its partition, finishes cleanly.
fn run_worker(addr: std::net::SocketAddr, topic: Arc<Topic<f64>>, worker: u32) -> RunOutput {
    let engine = connect_worker(addr, worker, false, |v: &f64| *v).expect("worker joins");
    let mut consumer = Consumer::group(topic, worker as usize, WORKERS as usize);
    let mut session = ApproxSession::from_engine(Box::new(engine));
    loop {
        let delta = session
            .ingest_consumer(&mut consumer, 64)
            .expect("engine alive");
        if delta.ingested == 0 && consumer.is_caught_up() {
            break;
        }
    }
    session.finish()
}

/// The uninterrupted two-worker run every fault scenario is compared
/// against.
fn healthy_reference(fault: FaultPolicy) -> (RunOutput, u64) {
    let topic = publish();
    let mut policy = FixedPerStratum(24);
    let coordinator = coordinator(fault, &mut policy);
    let addr = coordinator.addr();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let topic = topic.clone();
            thread::spawn(move || run_worker(addr, topic, w))
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    let total = topic.total_items();
    (coordinator.finish().expect("healthy run"), total)
}

fn assert_bits(label: &str, a: &[WindowResult], b: &[WindowResult]) {
    assert_eq!(a.len(), b.len(), "{label}: window count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.window, y.window, "{label}: window bounds");
        assert_eq!(
            x.sum.value.to_bits(),
            y.sum.value.to_bits(),
            "{label}: {} sum bits",
            x.window
        );
        assert_eq!(
            x.mean.value.to_bits(),
            y.mean.value.to_bits(),
            "{label}: {} mean bits",
            x.window
        );
        assert_eq!(x.degraded, y.degraded, "{label}: {} degraded", x.window);
    }
}

/// Claim 1: under aggressive heartbeat cadence and fault windows, two
/// healthy runs of the same stream are bit-identical and never degraded
/// — the supervision machinery does not perturb the sampling path.
#[test]
fn fault_free_runs_are_bit_identical_and_never_degraded() {
    let (a, total) = healthy_reference(fast_fault());
    let (b, _) = healthy_reference(fast_fault());
    assert_eq!(a.items_ingested, total);
    assert_bits("healthy repeat", &a.windows, &b.windows);
    for w in &a.windows {
        assert!(!w.degraded, "{}: healthy run degraded", w.window);
        assert_eq!(w.lost_items, 0);
    }
}

/// Claim 2: kill worker 1 mid-stream after a checkpoint, adopt its shard
/// with [`rejoin_worker`], resume from the handed-off snapshot, replay
/// the log from the recorded offsets — and the stitched run equals the
/// uninterrupted run bit for bit, with the respawn on the books.
#[test]
fn kill_and_rejoin_recovers_exactly_once() {
    // Generous straggler clock and backoff: the replacement must get to
    // refill the dead shard's panes rather than lose them to a
    // force-merge or retirement.
    let fault = fast_fault()
        .with_pane_timeout(Duration::from_secs(10))
        .with_backoff(Duration::from_secs(10));
    let (reference, total) = healthy_reference(fault);

    let topic = publish();
    let mut policy = FixedPerStratum(24);
    let mut coordinator = coordinator(fault, &mut policy);
    let addr = coordinator.addr();

    let good = {
        let topic = topic.clone();
        thread::spawn(move || run_worker(addr, topic, 0))
    };
    let victim = {
        let topic = topic.clone();
        thread::spawn(move || {
            // Generation 0: checkpointable worker 1. Consume a prefix,
            // checkpoint (which also publishes the sealed slice to the
            // coordinator), consume a little more — work the crash
            // throws away locally — then die without a shutdown.
            let engine = connect_worker(addr, 1, false, |v: &f64| *v)
                .expect("worker joins")
                .checkpointable(RecordCodec::new());
            let mut consumer = Consumer::group(topic.clone(), 1, WORKERS as usize);
            let mut session = ApproxSession::from_engine(Box::new(engine));
            // One published batch per poll, so the checkpoint and the
            // crash both land mid-stream, with delivered panes on both
            // sides of the checkpoint.
            for _ in 0..10 {
                session
                    .ingest_consumer(&mut consumer, 1)
                    .expect("engine alive");
            }
            let local_snapshot = session.checkpoint().expect("checkpointable worker");
            assert!(
                !local_snapshot.replay.is_empty(),
                "consumer-fed checkpoints must record replay offsets"
            );
            for _ in 0..4 {
                session
                    .ingest_consumer(&mut consumer, 1)
                    .expect("engine alive");
            }
            drop(session); // crash: no shutdown, heartbeats stop, socket severed
            drop(consumer);

            // The replacement process: adopt whichever shard died, seed
            // from its last *published* checkpoint (received over the
            // handoff, not read locally), replay the rest of the log
            // from the snapshot's own offsets.
            let (engine, handoff) =
                rejoin_worker(addr, false, |v: &f64| *v).expect("a dead shard to adopt");
            assert_eq!(engine.worker(), 1, "the dead shard is worker 1's");
            assert_eq!(engine.respawns(), 1);
            let handoff = handoff.expect("the victim published a checkpoint");
            let mut session =
                ApproxSession::resume_from_engine(Box::new(engine), &handoff).expect("restores");
            let mut consumer = Consumer::group(topic, 1, WORKERS as usize);
            loop {
                let delta = session
                    .ingest_consumer(&mut consumer, 64)
                    .expect("engine alive");
                if delta.ingested == 0 && consumer.is_caught_up() {
                    break;
                }
            }
            session.finish()
        })
    };

    // Drive the coordinator while the drama unfolds, so liveness checks
    // run and the death is noticed before the replacement dials in.
    let mut windows = Vec::new();
    while !victim.is_finished() || !good.is_finished() {
        windows.extend(
            coordinator
                .poll_windows()
                .expect("faults degrade, not error"),
        );
        thread::sleep(Duration::from_millis(5));
    }
    let replacement_out = victim.join().expect("replacement thread");
    let _ = good.join().expect("good worker thread");
    windows.extend(coordinator.poll_windows().expect("no session error"));

    let status = coordinator.status();
    let worker1 = status
        .workers
        .iter()
        .find(|w| w.worker == 1)
        .expect("worker 1 tracked");
    assert_eq!(worker1.respawns, 1, "the adoption must be on the books");

    let out = coordinator.finish().expect("recovered run");
    windows.extend(out.windows);

    // Exactly-once at every level: the replacement's counters cover its
    // whole shard once, the coordinator counted every item once, and the
    // stitched windows equal the uninterrupted run's bit for bit. The
    // shard's size follows the producer's batch-level round robin:
    // worker 1 replays the odd-indexed batches.
    let shard1: u64 = stream()
        .chunks(128)
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, c)| c.len() as u64)
        .sum();
    assert_eq!(replacement_out.items_ingested, shard1);
    assert_eq!(out.items_ingested, total);
    assert_bits("kill and rejoin", &windows, &reference.windows);
    for w in &windows {
        assert!(
            !w.degraded,
            "{}: a recovered shard must not cost accuracy",
            w.window
        );
    }
}

/// Claim 3: a worker that dies for good — crash mid-stream, no
/// replacement — retires after the backoff and the run completes
/// degraded: windows stamped, lost mass accounted, and the widened
/// intervals still covering the true sums. Deterministic seeds and
/// deterministic fault injection make the coverage check exact, not
/// probabilistic.
#[test]
fn permanent_death_degrades_with_covering_intervals() {
    let topic = publish();
    let mut policy = FixedPerStratum(24);
    let coordinator = coordinator(fast_fault(), &mut policy);
    let addr = coordinator.addr();

    let good = {
        let topic = topic.clone();
        thread::spawn(move || run_worker(addr, topic, 0))
    };
    let crash_after = (ITEMS / 4) as u64;
    let victim = thread::spawn(move || {
        let engine = connect_worker(addr, 1, false, |v: &f64| *v).expect("worker joins");
        let mut consumer = Consumer::group(topic, 1, WORKERS as usize);
        let mut session = ApproxSession::from_engine(Box::new(engine));
        let mut seen = IngestCounters::default();
        while seen.ingested < crash_after {
            let delta = session
                .ingest_consumer(&mut consumer, 64)
                .expect("engine alive");
            seen.absorb(delta);
        }
        drop(session); // crash, no shutdown
    });
    victim.join().expect("victim thread");
    let _ = good.join().expect("good worker thread");

    let started = Instant::now();
    let out = coordinator.finish().expect("degrades, does not error");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "retirement must beat the run timeout"
    );

    assert_eq!(
        out.windows.len(),
        (ITEMS / WINDOW_MS) as usize,
        "the watermark must keep advancing over the dead shard"
    );
    let degraded: Vec<_> = out.windows.iter().filter(|w| w.degraded).collect();
    assert!(
        !degraded.is_empty(),
        "the dead shard's later windows must be stamped"
    );
    let lost: u64 = degraded.iter().map(|w| w.lost_items).sum();
    assert!(lost > 0, "the missing mass must be accounted");
    let truth = truth();
    for w in &out.windows {
        let true_sum = truth[&w.window.start.as_millis()];
        let (lo, hi) = w.sum.interval();
        assert!(
            lo <= true_sum && true_sum <= hi,
            "{}: interval [{lo}, {hi}] must cover the true sum {true_sum} (degraded: {}, \
             lost: {})",
            w.window,
            w.degraded,
            w.lost_items
        );
        if w.degraded {
            assert!(
                hi > lo,
                "{}: a degraded window's interval must be open, not a point",
                w.window
            );
        }
    }
}

/// Claim 4a (the pre-join wedge): a client that connects and never says
/// hello occupies one handshake thread, not the coordinator — startup,
/// the run, and shutdown all proceed at full speed around it.
#[test]
fn wedged_connection_cannot_stall_startup() {
    let mut policy = FixedPerStratum(16);
    let coordinator = StreamApprox::new(query(), &mut policy)
        .distributed(
            DistributedConfig::new(1)
                .with_timeout(Duration::from_secs(10))
                .with_fault_policy(fast_fault()),
        )
        .expect("bind loopback");
    let addr = coordinator.addr();

    // The wedge: a connection that never sends its hello, held open for
    // the whole test.
    let _wedge = TcpStream::connect(addr).expect("connect");

    let started = Instant::now();
    let worker = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("join past the wedge");
        let mut session = ApproxSession::from_engine(Box::new(engine));
        for i in 0..2_000i64 {
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
    let _ = worker.join().expect("worker thread");
    let out = coordinator.finish().expect("clean run around the wedge");
    assert_eq!(out.items_ingested, 2_000);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the wedged connection must not slow the run down"
    );
}

/// Claim 4b (hostile frames): a joined worker that starts speaking
/// garbage — heartbeats are fine in any phase, but a digest claiming
/// another worker's identity is not — loses its connection and shard,
/// and nothing else: the session finishes degraded, with the offender
/// declared dead.
#[test]
fn hostile_frames_cost_the_connection_not_the_session() {
    let mut policy = FixedPerStratum(16);
    let mut coordinator = coordinator(fast_fault(), &mut policy);
    let addr = coordinator.addr();

    let good = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("worker joins");
        let mut session = ApproxSession::from_engine(Box::new(engine));
        for i in 0..3_000i64 {
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

    // Worker 1 joins legitimately by hand, heartbeats once (legal in any
    // phase), then claims to be worker 0.
    let hostile = thread::spawn(move || {
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
        write_message(
            &mut stream,
            &Message::Heartbeat(Heartbeat {
                worker: 1,
                ingest: IngestCounters::default(),
                watermark: None,
                lag: 0,
                last_checkpoint_pane: None,
                items_since_checkpoint: 0,
                snapshot_bytes: 0,
            }),
        )
        .expect("heartbeats are always legal");
        let imposter = Digest {
            worker: 0,
            pane: Window::new(EventTime::from_millis(0), EventTime::from_millis(WINDOW_MS)),
            counters: IngestCounters::default(),
            watermark: None,
            lag: 0,
            last_checkpoint_pane: None,
            items_since_checkpoint: 0,
            snapshot_bytes: 0,
            payload: DigestPayload::Sampled(StratifiedSample::new()),
        };
        write_message(&mut stream, &Message::PaneDigest(imposter)).expect("frame sent");
        // Hold the connection open until the coordinator reacts, so the
        // death is attributable to the hostile frame, not a hangup.
        thread::sleep(Duration::from_millis(300));
    });
    hostile.join().expect("hostile thread");
    let _ = good.join().expect("good worker thread");

    // The offender must be declared dead (or already retired); the run
    // itself completes.
    let _ = coordinator.poll_windows().expect("no session error");
    let status = coordinator.status();
    let offender = status
        .workers
        .iter()
        .find(|w| w.worker == 1)
        .expect("worker 1 tracked");
    assert!(
        matches!(offender.health, WorkerHealth::Dead | WorkerHealth::Retired),
        "hostile worker must be declared dead, was {:?}",
        offender.health
    );
    let out = coordinator
        .finish()
        .expect("one bad worker cannot kill the run");
    assert_eq!(out.windows.len(), 3);
    assert!(out.windows.iter().all(|w| w.degraded));
}

/// Claim 4c (the live straggler): a worker that heartbeats dutifully but
/// never delivers a digest blocks each pane only until `pane_timeout`,
/// when the pane force-merges degraded — the watermark advances while
/// the straggler is still demonstrably alive.
#[test]
fn live_straggler_is_force_merged_after_the_pane_timeout() {
    let fault = fast_fault().with_pane_timeout(Duration::from_millis(400));
    let mut policy = FixedPerStratum(16);
    let mut coordinator = coordinator(fault, &mut policy);
    let addr = coordinator.addr();

    let good = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("worker joins");
        let mut session = ApproxSession::from_engine(Box::new(engine));
        for i in 0..2_000i64 {
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
    let _ = good.join().expect("good worker thread");

    // The straggler: joins (its background thread heartbeats at the
    // assigned cadence) but never pushes an item, so it never delivers a
    // pane.
    let straggler = connect_worker(addr, 1, false, |v: &f64| *v).expect("straggler joins");

    // The first window must force-merge while the straggler is alive and
    // heartbeating — well before any death or retirement could excuse
    // its pane.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut first = None;
    while first.is_none() {
        assert!(
            Instant::now() < deadline,
            "the pane timeout must force the merge"
        );
        let mut got = coordinator.poll_windows().expect("no session error");
        if !got.is_empty() {
            first = Some(got.remove(0));
        }
        thread::sleep(Duration::from_millis(10));
    }
    let first = first.expect("first window");
    assert!(first.degraded, "a force-merged pane degrades its windows");
    let status = coordinator.status();
    let lagging = status
        .workers
        .iter()
        .find(|w| w.worker == 1)
        .expect("straggler tracked");
    assert!(
        matches!(
            lagging.health,
            WorkerHealth::Healthy | WorkerHealth::Suspect
        ),
        "the straggler must still be alive when its pane is taken from it, was {:?}",
        lagging.health
    );

    // Let the straggler die; its shard retires and the run completes.
    drop(straggler);
    let out = coordinator.finish().expect("straggler cannot hang the run");
    assert!(out.windows.iter().all(|w| w.degraded));
}
