//! Bounded-error checkpoint & resume acceptance: snapshot → seal → open →
//! restore round-trips on every snapshotable engine, kill/restore against
//! an uninterrupted oracle (bit-identical at pane boundaries, within
//! confidence bounds when the unsnapshotted suffix is lost), replay from
//! the aggregator log's recorded offsets, and the AF-Stream size property
//! — snapshots are O(sampling budget), not O(stream).

use proptest::prelude::*;
use sa_aggregator::{replay_into, Consumer, Partitioner, Producer, Topic};
use sa_batched::Cluster;
use sa_types::{
    CheckpointPolicy, EventTime, SaError, SessionSnapshot, StratumId, StreamItem, WindowSpec,
};
use sa_workloads::Mix;
use streamapprox::{
    open_session_snapshot, seal_session_snapshot, AggregatedConfig, BatchedConfig, BatchedSystem,
    CheckpointStore, FileCheckpointStore, FixedFraction, Query, ShardedConfig, StreamApprox,
    WindowResult,
};

fn items(seed: u64) -> Vec<StreamItem<f64>> {
    Mix::gaussian([3_000.0, 800.0, 80.0]).generate(5_000, seed)
}

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000))
}

/// The three in-process engines that implement `snapshot`/`restore`.
#[derive(Clone, Copy, Debug)]
enum EngineKind {
    Batched,
    Aggregated,
    Sharded,
}

const ENGINES: [EngineKind; 3] = [
    EngineKind::Batched,
    EngineKind::Aggregated,
    EngineKind::Sharded,
];

/// A checkpointable builder for `kind`, configured identically every call —
/// the resume contract requires the restoring builder to match the one
/// that took the snapshot.
fn checkpointable(kind: EngineKind, policy: &mut FixedFraction) -> StreamApprox<'_, f64> {
    let builder = StreamApprox::new(query(), policy).checkpointable();
    match kind {
        EngineKind::Batched => builder.batched(
            BatchedConfig::new(Cluster::new(2))
                .with_batch_interval_ms(500)
                .with_seed(0xC0DE_u64)
                .with_system(BatchedSystem::StreamApprox),
        ),
        EngineKind::Aggregated => builder.aggregated(AggregatedConfig::new().with_seed(0xC0DE_u64)),
        EngineKind::Sharded => builder.sharded(
            ShardedConfig::new(2)
                .with_pane_interval_ms(500)
                .with_seed(0xC0DE_u64),
        ),
    }
}

/// Bitwise window equality: estimator values, interval edges, and sample
/// accounting all match to the bit, not merely within float tolerance.
fn assert_bit_identical(a: &WindowResult, b: &WindowResult) {
    assert_eq!(a.window, b.window);
    for (x, y) in [(&a.sum, &b.sum), (&a.mean, &b.mean)] {
        assert_eq!(x.value.to_bits(), y.value.to_bits(), "{}", a.window);
        let ((xlo, xhi), (ylo, yhi)) = (x.interval(), y.interval());
        assert_eq!(xlo.to_bits(), ylo.to_bits(), "{}", a.window);
        assert_eq!(xhi.to_bits(), yhi.to_bits(), "{}", a.window);
        assert_eq!(x.sample_size, y.sample_size, "{}", a.window);
    }
    assert_eq!(a.sum_by_stratum.len(), b.sum_by_stratum.len());
    for ((sa, ra), (sb, rb)) in a.sum_by_stratum.iter().zip(&b.sum_by_stratum) {
        assert_eq!(sa, sb);
        assert_eq!(ra.value.to_bits(), rb.value.to_bits(), "{}", a.window);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The core round-trip on every engine at a random split point:
    /// checkpoint → seal → open → restore into a fresh builder, replay the
    /// tail, and the stitched run equals an uninterrupted oracle exactly —
    /// reservoir contents, sampler RNG streams, counters and pane cursor
    /// all survive serialization draw-for-draw.
    #[test]
    fn snapshot_roundtrip_resumes_draw_for_draw(split_pct in 10u64..90, seed in 1u64..500) {
        for kind in ENGINES {
            let stream = items(seed);
            let split = (stream.len() as u64 * split_pct / 100) as usize;

            let mut oracle_policy = FixedFraction(0.4);
            let mut oracle = checkpointable(kind, &mut oracle_policy).start();
            oracle.push_batch(stream.iter().copied()).expect("in order");
            let oracle_out = oracle.finish();

            let mut first_policy = FixedFraction(0.4);
            let mut first = checkpointable(kind, &mut first_policy).start();
            first
                .push_batch(stream[..split].iter().copied())
                .expect("in order");
            let mut windows = first.poll_windows();
            let snapshot = first.checkpoint().expect("snapshotable engine");
            drop(first); // the crash: unfinished state dies with the process

            let sealed = seal_session_snapshot(&snapshot).expect("seal");
            let reopened = open_session_snapshot(&sealed).expect("open");
            let mut resumed_policy = FixedFraction(0.4);
            let mut resumed = checkpointable(kind, &mut resumed_policy)
                .resume(&reopened)
                .expect("matching builder restores");
            resumed
                .push_batch(stream[split..].iter().copied())
                .expect("in order");
            let out = resumed.finish();
            prop_assert_eq!(out.items_ingested, oracle_out.items_ingested, "{:?}", kind);
            prop_assert_eq!(out.items_aggregated, oracle_out.items_aggregated, "{:?}", kind);
            windows.extend(out.windows);
            prop_assert_eq!(&windows, &oracle_out.windows, "{:?}", kind);
        }
    }
}

/// A checkpoint falling exactly on a pane boundary restores bit-identically
/// on every engine: the resumed run's windows match an uninterrupted
/// oracle's in value, error-bound edges, and sample counters via `to_bits`.
#[test]
fn pane_boundary_checkpoint_restores_bit_identically() {
    for kind in ENGINES {
        let stream = items(77);
        // Split where event time first reaches 2s — a boundary of both the
        // 500ms panes and the 1s windows, so the checkpoint state carries
        // a freshly-closed pane and nothing mid-flight from the next.
        let split = stream
            .iter()
            .position(|i| i.time >= EventTime::from_millis(2_000))
            .expect("5s stream crosses 2s");

        let mut oracle_policy = FixedFraction(0.4);
        let mut oracle = checkpointable(kind, &mut oracle_policy).start();
        oracle.push_batch(stream.iter().copied()).expect("in order");
        let oracle_out = oracle.finish();

        let mut first_policy = FixedFraction(0.4);
        let mut first = checkpointable(kind, &mut first_policy).start();
        first
            .push_batch(stream[..split].iter().copied())
            .expect("in order");
        let snapshot = first.checkpoint().expect("snapshotable engine");
        drop(first);

        let mut resumed_policy = FixedFraction(0.4);
        let mut resumed = checkpointable(kind, &mut resumed_policy)
            .resume(&snapshot)
            .expect("matching builder restores");
        resumed
            .push_batch(stream[split..].iter().copied())
            .expect("in order");
        let out = resumed.finish();

        assert_eq!(out.windows.len(), oracle_out.windows.len(), "{kind:?}");
        for (a, b) in out.windows.iter().zip(&oracle_out.windows) {
            assert_bit_identical(a, b);
        }
        assert_eq!(out.items_ingested, oracle_out.items_ingested, "{kind:?}");
        assert_eq!(
            out.items_aggregated, oracle_out.items_aggregated,
            "{kind:?}"
        );
    }
}

/// The bounded-error story: a crash loses the suffix pushed after the last
/// checkpoint, the [`CheckpointPolicy`] item budget bounds that suffix, and
/// the resumed run — missing at most those items mid-pane — still lands
/// within confidence-bound distance of the uninterrupted oracle.
#[test]
fn mid_pane_crash_with_bounded_loss_stays_within_bounds() {
    let stream = items(91);

    let mut oracle_policy = FixedFraction(0.4);
    let mut oracle = checkpointable(EngineKind::Aggregated, &mut oracle_policy).start();
    oracle.push_batch(stream.iter().copied()).expect("in order");
    let oracle_out = oracle.finish();

    // The victim checkpoints under a 300-item unsnapshotted budget and
    // crashes mid-pane; everything since its last checkpoint is lost.
    let mut victim_policy = FixedFraction(0.4);
    let mut victim = StreamApprox::new(query(), &mut victim_policy)
        .checkpointable()
        .with_checkpoint_policy(CheckpointPolicy::every_panes(1).with_max_unsnapshotted(300))
        .aggregated(AggregatedConfig::new().with_seed(0xC0DE_u64))
        .start();
    let crash_at = stream.len() * 3 / 5;
    let mut latest: Option<SessionSnapshot> = None;
    let mut checkpointed_through = 0usize;
    for (i, item) in stream[..crash_at].iter().enumerate() {
        victim.push(*item).expect("in order");
        if victim.checkpoint_due() {
            latest = Some(victim.checkpoint().expect("snapshotable engine"));
            checkpointed_through = i + 1;
        }
    }
    let lost = crash_at - checkpointed_through;
    assert!(
        lost <= 300,
        "policy budget must bound the unsnapshotted suffix, lost {lost}"
    );
    assert!(lost > 0, "crash should fall mid-pane, between checkpoints");
    drop(victim);

    let snapshot = latest.expect("at least one checkpoint was due");
    let mut resumed_policy = FixedFraction(0.4);
    let mut resumed = checkpointable(EngineKind::Aggregated, &mut resumed_policy)
        .resume(&snapshot)
        .expect("matching builder restores");
    // The lost suffix cannot be replayed; the stream continues from the
    // crash point onward.
    resumed
        .push_batch(stream[crash_at..].iter().copied())
        .expect("in order");
    let out = resumed.finish();
    assert_eq!(
        out.items_ingested + lost as u64,
        oracle_out.items_ingested,
        "exactly the unsnapshotted suffix is missing"
    );

    // Every window the resumed run answers tracks the oracle's answer: the
    // loss is bounded by the budget, so means stay within bound-scale
    // distance and the two confidence intervals overlap.
    for w in &out.windows {
        let reference = oracle_out
            .windows
            .iter()
            .find(|o| o.window == w.window)
            .expect("resumed run answers the oracle's windows");
        if reference.mean.value != 0.0 {
            let loss = sa_estimate::accuracy_loss(w.mean.value, reference.mean.value);
            assert!(loss < 0.25, "{}: mean drifted {loss}", w.window);
        }
        let (lo, hi) = w.mean.interval();
        let (rlo, rhi) = reference.mean.interval();
        assert!(
            lo <= rhi && rlo <= hi,
            "{}: confidence intervals disjoint: [{lo}, {hi}] vs [{rlo}, {rhi}]",
            w.window
        );
    }
}

/// Resume over the aggregator log: the snapshot records the consumer's
/// offsets at the last counted poll, a fresh consumer seeks them before its
/// first post-resume poll, and the stitched run equals an uninterrupted
/// consumer-fed oracle exactly — no double-counted prefix, no lost tail,
/// even though the victim had polled past the checkpoint before dying.
#[test]
fn resume_replays_the_log_from_recorded_offsets() {
    let mix = Mix::gaussian([1_000.0, 200.0, 20.0]);
    let substreams: Vec<_> = mix
        .substreams()
        .iter()
        .map(|s| s.generate(EventTime::from_millis(0), 2_000, 5))
        .collect();
    let merged = sa_aggregator::merge_by_time(substreams);
    let total = merged.len() as u64;
    let topic = Topic::new("checkpointed-input", 1);
    let mut producer = Producer::new(topic.clone(), Partitioner::RoundRobin);
    replay_into(merged, &mut producer, 100);

    let drain = |session: &mut streamapprox::ApproxSession<'_, f64>,
                 consumer: &mut Consumer<f64>| loop {
        let delta = session.ingest_consumer(consumer, 5).expect("engine alive");
        if delta.ingested == 0 && consumer.is_caught_up() {
            break;
        }
    };

    let mut oracle_policy = FixedFraction(0.4);
    let mut oracle = checkpointable(EngineKind::Aggregated, &mut oracle_policy).start();
    let mut oracle_consumer = Consumer::whole_topic(topic.clone());
    drain(&mut oracle, &mut oracle_consumer);
    let oracle_out = oracle.finish();

    // The victim checkpoints after 8 polls, keeps consuming for 4 more —
    // work the crash will throw away — then dies without finishing.
    let mut victim_policy = FixedFraction(0.4);
    let mut victim = checkpointable(EngineKind::Aggregated, &mut victim_policy).start();
    let mut victim_consumer = Consumer::whole_topic(topic.clone());
    for _ in 0..8 {
        victim
            .ingest_consumer(&mut victim_consumer, 5)
            .expect("engine alive");
    }
    let snapshot = victim.checkpoint().expect("snapshotable engine");
    assert!(
        !snapshot.replay.is_empty(),
        "consumer-fed checkpoints must record replay offsets"
    );
    for _ in 0..4 {
        victim
            .ingest_consumer(&mut victim_consumer, 5)
            .expect("engine alive");
    }
    drop(victim);
    drop(victim_consumer);

    // Resume with a *fresh* consumer: the session seeks it to the recorded
    // offsets on the first poll, skipping the already-counted prefix.
    let mut resumed_policy = FixedFraction(0.4);
    let mut resumed = checkpointable(EngineKind::Aggregated, &mut resumed_policy)
        .resume(&snapshot)
        .expect("matching builder restores");
    let mut resumed_consumer = Consumer::whole_topic(topic);
    drain(&mut resumed, &mut resumed_consumer);
    let out = resumed.finish();

    assert_eq!(out.items_ingested, total);
    assert_eq!(out.items_ingested, oracle_out.items_ingested);
    assert_eq!(out.windows, oracle_out.windows);
}

/// The AF-Stream property that makes approximate fault tolerance cheap:
/// snapshots serialize the mergeable sampler state, so their size is a
/// function of the sampling budget and pane occupancy — **not** of how
/// much stream has flowed through. A 10× longer stream may cost a few
/// varint bytes of counter width, never a proportional snapshot.
#[test]
fn snapshot_size_tracks_the_budget_not_the_stream() {
    let sealed_size = |kind: EngineKind, n: usize| -> u64 {
        let stream: Vec<StreamItem<f64>> = (0..n)
            .map(|i| {
                let stratum = StratumId((i % 3) as u32);
                StreamItem::new(
                    stratum,
                    EventTime::from_millis(i as i64),
                    f64::from((i % 50) as u32),
                )
            })
            .collect();
        let mut policy = FixedFraction(0.4);
        let mut session = checkpointable(kind, &mut policy).start();
        session.push_batch(stream).expect("in order");
        // Drain delivered windows: a snapshot holds live state, not the
        // output backlog of a consumer that never polled.
        let _ = session.poll_windows();
        let snapshot = session.checkpoint().expect("snapshotable engine");
        let sealed = seal_session_snapshot(&snapshot).expect("seal");
        let _ = session.finish();
        sealed.len() as u64
    };
    for kind in ENGINES {
        let small = sealed_size(kind, 10_000);
        let large = sealed_size(kind, 100_000);
        assert!(small > 0);
        assert!(
            large < small * 2,
            "{kind:?}: 10x the stream grew the snapshot {small} -> {large} bytes"
        );
    }
}

/// `SessionStatus` surfaces checkpoint exposure: what pane the last
/// checkpoint covered, how many items arrived since (the at-risk window),
/// and how large the sealed snapshot was.
#[test]
fn status_reports_checkpoint_exposure() {
    let stream = items(13);
    let mut policy = FixedFraction(0.4);
    let mut session = checkpointable(EngineKind::Aggregated, &mut policy).start();
    // ~3,880 items/s: 4,000 items put the watermark past the first pane.
    session
        .push_batch(stream[..4_000].iter().copied())
        .expect("in order");

    let before = session.status();
    assert_eq!(before.last_checkpoint_pane, None);
    assert_eq!(before.items_since_checkpoint, 4_000);
    assert_eq!(before.snapshot_bytes, 0);
    assert!(session.checkpoint_due(), "default policy: due every pane");

    let snapshot = session.checkpoint().expect("snapshotable engine");
    let after = session.status();
    assert_eq!(after.last_checkpoint_pane, snapshot.engine.pane);
    assert!(after.last_checkpoint_pane.is_some());
    assert_eq!(after.items_since_checkpoint, 0);
    assert_eq!(
        after.snapshot_bytes,
        seal_session_snapshot(&snapshot).expect("seal").len() as u64
    );

    session
        .push_batch(stream[4_000..4_200].iter().copied())
        .expect("in order");
    assert_eq!(session.status().items_since_checkpoint, 200);
    let _ = session.finish();
}

/// The file-backed store closes the loop on disk: `checkpoint_to` seals and
/// saves atomically, `load` + `open_session_snapshot` + `resume` restores,
/// and the stitched run matches the oracle.
#[test]
fn file_store_round_trips_a_kill_restore() {
    let dir = std::env::temp_dir().join(format!(
        "sa-ckpt-resume-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut store = FileCheckpointStore::new(dir.join("session.snapshot"));

    let stream = items(55);
    let split = stream.len() / 2;
    let mut oracle_policy = FixedFraction(0.4);
    let mut oracle = checkpointable(EngineKind::Sharded, &mut oracle_policy).start();
    oracle.push_batch(stream.iter().copied()).expect("in order");
    let oracle_out = oracle.finish();

    let mut first_policy = FixedFraction(0.4);
    let mut first = checkpointable(EngineKind::Sharded, &mut first_policy).start();
    first
        .push_batch(stream[..split].iter().copied())
        .expect("in order");
    let bytes = first.checkpoint_to(&mut store).expect("seal and save");
    drop(first);

    let sealed = store.load().expect("readable").expect("saved");
    assert_eq!(bytes, sealed.len() as u64);
    let snapshot = open_session_snapshot(&sealed).expect("open");
    let mut resumed_policy = FixedFraction(0.4);
    let mut resumed = checkpointable(EngineKind::Sharded, &mut resumed_policy)
        .resume(&snapshot)
        .expect("matching builder restores");
    resumed
        .push_batch(stream[split..].iter().copied())
        .expect("in order");
    let out = resumed.finish();
    assert_eq!(out.windows, oracle_out.windows);
    assert_eq!(out.items_ingested, oracle_out.items_ingested);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Checkpointing is opt-in and guarded: a session built without
/// `checkpointable()` refuses to snapshot, the pipelined engine never
/// snapshots (its state lives in operator threads), and a snapshot cannot
/// be restored into a different engine.
#[test]
fn checkpoint_guards_reject_unsupported_paths() {
    let mut p1 = FixedFraction(0.4);
    let mut plain = StreamApprox::new(query(), &mut p1)
        .aggregated(AggregatedConfig::new())
        .start();
    plain
        .push(StreamItem::new(
            StratumId(0),
            EventTime::from_millis(10),
            1.0f64,
        ))
        .expect("in order");
    assert!(matches!(plain.checkpoint(), Err(SaError::Checkpoint(_))));
    let _ = plain.finish();

    let mut p2 = FixedFraction(0.4);
    let mut pipelined = StreamApprox::new(query(), &mut p2)
        .checkpointable()
        .pipelined(streamapprox::PipelinedConfig::new())
        .start();
    assert!(matches!(
        pipelined.checkpoint(),
        Err(SaError::Checkpoint(_))
    ));
    let _ = pipelined.finish();

    // An aggregated snapshot cannot be poured into the sharded engine.
    let mut p3 = FixedFraction(0.4);
    let mut donor = checkpointable(EngineKind::Aggregated, &mut p3).start();
    donor
        .push_batch(items(3).into_iter().take(1_000))
        .expect("in order");
    let snapshot = donor.checkpoint().expect("snapshotable engine");
    let _ = donor.finish();
    let mut p4 = FixedFraction(0.4);
    let err = match checkpointable(EngineKind::Sharded, &mut p4).resume(&snapshot) {
        Ok(_) => panic!("engine-name mismatch must refuse"),
        Err(err) => err,
    };
    assert!(matches!(err, SaError::Checkpoint(_)));

    // A sampler pool whose directive no sampler can run is corrupt state:
    // rewrite the pool's `Some(Fraction(0.4))` into `Some(PerStratum(0))`.
    let mut hostile = snapshot;
    let mut pool = vec![1u8, 1];
    pool.extend_from_slice(&0.4f64.to_le_bytes());
    let state = &mut hostile.engine.state;
    let hits: Vec<usize> = (0..state.len())
        .filter(|&at| state[at..].starts_with(&pool))
        .collect();
    assert_eq!(hits.len(), 1, "one pool directive in the aggregated state");
    state.splice(hits[0] + 1..hits[0] + pool.len(), [2, 0]);
    let mut p5 = FixedFraction(0.4);
    let err = match checkpointable(EngineKind::Aggregated, &mut p5).resume(&hostile) {
        Ok(_) => panic!("an unrunnable directive must refuse"),
        Err(err) => err,
    };
    assert!(matches!(err, SaError::Wire(_)), "{err}");
}
