//! Byte-level pins on the wire and snapshot formats.
//!
//! `tests/golden/` holds one framed message (`frame-*.bin`) per
//! `sa_net::Message` variant and one sealed session snapshot
//! (`snapshot-*.bin`) per checkpointable engine, all built from fixed
//! seeds. [`golden_corpus_is_pinned`] rebuilds every input and requires
//! the encoder to reproduce each file byte for byte, and the decoder to
//! read each file back to a value that re-encodes to the same bytes. The
//! local engines' snapshots go through a full resume and a fresh
//! checkpoint, so their engine-state codecs are pinned too, not only the
//! session envelope.
//!
//! A deliberate format change bumps `sa_net::WIRE_VERSION` or
//! `sa_net::SNAPSHOT_VERSION` and adds files; it never rewrites existing
//! ones. Nor does a change of what an engine puts in a snapshot: the
//! generator's new bytes go to a new file, and the old file stays in
//! [`REENCODE_ONLY`], read back and re-encoded unchanged. The snapshots of a version this build no longer speaks stay in
//! the corpus, and [`older_snapshots_are_refused`] pins that they are
//! refused, never misread. The two frames that carry a sealed snapshot
//! carry the version 2 worker snapshot's committed bytes: to the frame
//! codec they are opaque. Regenerate the corpus with
//!
//! ```text
//! cargo test -q --test golden -- --ignored regenerate_golden_corpus
//! ```

use sa_batched::Cluster;
use sa_net::frame::{read_message, write_message};
use sa_net::{Assignment, Digest, DigestPayload, Heartbeat, Message};
use sa_types::{
    Confidence, EventTime, IngestCounters, RunSeed, SaError, StreamItem, Window, WindowResult,
    WindowSpec,
};
use sa_workloads::Mix;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use streamapprox::{
    connect_worker, open_session_snapshot, sampler_sizing, seal_session_snapshot, AggregatedConfig,
    ApproxSession, BatchedConfig, BatchedSystem, DistributedConfig, FixedFraction, IntervalWorker,
    Query, RecordCodec, ShardedConfig, SizingDirective, StreamApprox, WorkerPane,
};

const SEED: u64 = 42;
const FRACTION: f64 = 0.2;
const PANE_MS: i64 = 500;
/// The stream ends mid-pane, so every snapshot holds an open pane.
const END_MS: i64 = 1_750;

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v).with_window(WindowSpec::sliding_millis(1_000, PANE_MS))
}

fn stream() -> Vec<StreamItem<f64>> {
    Mix::gaussian([400.0, 100.0, 20.0]).generate(END_MS, SEED)
}

/// The engines whose snapshots a local builder can resume.
#[derive(Clone, Copy, Debug)]
enum LocalEngine {
    Aggregated,
    Batched,
    Sharded,
}

fn builder(engine: LocalEngine, policy: &mut FixedFraction) -> StreamApprox<'_, f64> {
    let builder = StreamApprox::new(query(), policy).checkpointable();
    match engine {
        LocalEngine::Aggregated => builder.aggregated(AggregatedConfig::new().with_seed(SEED)),
        LocalEngine::Batched => builder.batched(
            BatchedConfig::new(Cluster::new(2))
                .with_batch_interval_ms(PANE_MS)
                .with_seed(SEED)
                .with_system(BatchedSystem::StreamApprox),
        ),
        LocalEngine::Sharded => builder.sharded(
            ShardedConfig::new(2)
                .with_pane_interval_ms(PANE_MS)
                .with_seed(SEED),
        ),
    }
}

/// A local engine's sealed snapshot, taken mid-pane. The sharded engine's
/// routing spreads every pane over both shards.
fn local_snapshot(engine: LocalEngine) -> Vec<u8> {
    let mut policy = FixedFraction(FRACTION);
    let mut session = builder(engine, &mut policy).start();
    session.push_batch(stream()).expect("in order");
    let snapshot = session.checkpoint().expect("checkpointable engine");
    let _ = session.finish();
    seal_session_snapshot(&snapshot).expect("seal")
}

/// The distributed worker's sealed snapshot, taken mid-pane at K=1 over
/// loopback.
fn digest_snapshot() -> Vec<u8> {
    let mut policy = FixedFraction(FRACTION);
    let coordinator = StreamApprox::new(query(), &mut policy)
        .distributed(
            DistributedConfig::new(1)
                .with_seed(RunSeed::new(SEED))
                .with_timeout(Duration::from_secs(30)),
        )
        .expect("bind loopback");
    let addr = coordinator.addr();
    let worker = thread::spawn(move || {
        let engine = connect_worker(addr, 0, false, |v: &f64| *v)
            .expect("worker joins")
            .checkpointable(RecordCodec::new());
        let mut session = ApproxSession::from_engine(Box::new(engine));
        session.push_batch(stream()).expect("in order");
        let snapshot = session.checkpoint().expect("checkpointable worker");
        let _ = session.finish();
        snapshot
    });
    let snapshot = worker.join().expect("worker thread");
    coordinator.finish().expect("clean run");
    seal_session_snapshot(&snapshot).expect("seal")
}

/// One closed pane of shard 1 of 2, as a worker ships it.
fn digest(payload: DigestPayload, ingested: u64) -> Digest {
    Digest {
        worker: 1,
        pane: Window::new(EventTime::from_millis(0), EventTime::from_millis(PANE_MS)),
        counters: IngestCounters {
            ingested,
            dropped_late: 0,
        },
        watermark: Some(EventTime::from_millis(PANE_MS - 1)),
        lag: 7,
        last_checkpoint_pane: Some(0),
        items_since_checkpoint: 12,
        snapshot_bytes: 345,
        payload,
    }
}

/// Shard 1's close of the first pane, sampled or exact.
fn first_pane(sampling: bool) -> Digest {
    let sizing = sampling.then(|| {
        sampler_sizing(SizingDirective::Fraction(FRACTION), 1_000, 2).expect("a sampling policy")
    });
    let mut worker = IntervalWorker::for_shard(sizing, RunSeed::new(SEED), 1, Arc::new(|v| *v));
    let items: Vec<_> = stream()
        .into_iter()
        .filter(|item| item.time.as_millis() < PANE_MS)
        .collect();
    for item in &items {
        worker.observe(item.stratum, item.value);
    }
    let payload = match worker.close_interval_parts() {
        WorkerPane::Sampled(sample) => DigestPayload::Sampled(sample),
        WorkerPane::Stats(stats) => DigestPayload::Stats(stats),
    };
    digest(payload, items.len() as u64)
}

/// A degraded window result: the first window an aggregated run emits,
/// stamped with a lost-mass ledger.
fn degraded_window() -> WindowResult {
    let mut policy = FixedFraction(FRACTION);
    let mut session = StreamApprox::new(query(), &mut policy)
        .aggregated(AggregatedConfig::new().with_seed(SEED))
        .start();
    session.push_batch(stream()).expect("in order");
    WindowResult {
        degraded: true,
        lost_items: 321,
        ..session.finish().windows.remove(0)
    }
}

fn frame(message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    write_message(&mut out, message).expect("frame fits");
    out
}

/// What a corpus file holds, and so how it decodes.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Frame,
    Snapshot(Option<LocalEngine>),
}

/// Files of a current format that today's generator no longer produces,
/// pinned by decoding and re-encoding only. `snapshot-sharded-2-v3` holds
/// fraction panes merged by a sample union, one entry per stratum; the
/// generator now writes one entry per stratum per shard
/// (`snapshot-sharded-2-v3-shard-stats`), and a resume must still read
/// the older layout's content back unchanged.
const REENCODE_ONLY: [(&str, Kind); 1] = [(
    "snapshot-sharded-2-v3",
    Kind::Snapshot(Some(LocalEngine::Sharded)),
)];

/// The snapshot files of format version 2, which this build refuses.
const V2_SNAPSHOTS: [&str; 4] = [
    "snapshot-aggregated",
    "snapshot-batched",
    "snapshot-sharded-2",
    "snapshot-digest-k1",
];

/// Every corpus file of the current formats, rebuilt from the fixed seeds.
fn corpus() -> Vec<(&'static str, Kind, Vec<u8>)> {
    let handoff = std::fs::read(path("snapshot-digest-k1")).expect("the v2 worker snapshot");
    let messages = [
        (
            "frame-hello-join",
            Message::HelloJoin {
                worker: 1,
                wants_results: true,
            },
        ),
        (
            "frame-hello-assign",
            Message::HelloAssign(Assignment {
                worker: 1,
                num_workers: 2,
                seed: RunSeed::new(SEED),
                directive: SizingDirective::Fraction(FRACTION),
                pane_interval_ms: PANE_MS,
                expected_pane_items: 1_000,
                window: WindowSpec::sliding_millis(1_000, PANE_MS),
                confidence: Confidence::P95,
                heartbeat_interval_ms: 30,
            }),
        ),
        (
            "frame-pane-digest-sampled",
            Message::PaneDigest(first_pane(true)),
        ),
        (
            "frame-pane-digest-exact",
            Message::PaneDigest(first_pane(false)),
        ),
        (
            "frame-heartbeat",
            Message::Heartbeat(Heartbeat {
                worker: 1,
                ingest: IngestCounters {
                    ingested: 260,
                    dropped_late: 3,
                },
                watermark: Some(EventTime::from_millis(PANE_MS - 1)),
                lag: 7,
                last_checkpoint_pane: Some(0),
                items_since_checkpoint: 12,
                snapshot_bytes: 345,
            }),
        ),
        (
            "frame-window-result",
            Message::WindowResult(degraded_window()),
        ),
        ("frame-shutdown", Message::Shutdown { worker: 1 }),
        (
            "frame-hello-rejoin",
            Message::HelloRejoin {
                wants_results: true,
            },
        ),
        (
            "frame-reassign",
            Message::Reassign {
                worker: 1,
                respawns: 2,
                snapshot: handoff.clone(),
            },
        ),
        (
            "frame-snapshot-slice",
            Message::SnapshotSlice {
                worker: 1,
                pane: Some(1_500),
                sealed: handoff.clone(),
            },
        ),
    ];
    let mut corpus: Vec<_> = messages
        .iter()
        .map(|(name, message)| (*name, Kind::Frame, frame(message)))
        .collect();
    for (name, engine) in [
        ("snapshot-aggregated-v3", LocalEngine::Aggregated),
        ("snapshot-batched-v3", LocalEngine::Batched),
        ("snapshot-sharded-2-v3-shard-stats", LocalEngine::Sharded),
    ] {
        corpus.push((name, Kind::Snapshot(Some(engine)), local_snapshot(engine)));
    }
    corpus.push((
        "snapshot-digest-k1-v3",
        Kind::Snapshot(None),
        digest_snapshot(),
    ));
    corpus
}

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.bin"))
}

/// Decodes one corpus file and encodes what it decoded.
fn reencode(name: &str, kind: Kind, bytes: &[u8]) -> Vec<u8> {
    match kind {
        Kind::Frame => {
            let mut rest = bytes;
            let message = read_message(&mut rest)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .unwrap_or_else(|| panic!("{name}: empty file"));
            assert!(rest.is_empty(), "{name}: bytes after the frame");
            frame(&message)
        }
        Kind::Snapshot(engine) => {
            let snapshot = open_session_snapshot(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            let Some(engine) = engine else {
                return seal_session_snapshot(&snapshot).expect("seal");
            };
            let mut policy = FixedFraction(FRACTION);
            let mut session = builder(engine, &mut policy)
                .resume(&snapshot)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let again = session.checkpoint().expect("checkpointable engine");
            let _ = session.finish();
            seal_session_snapshot(&again).expect("seal")
        }
    }
}

#[test]
fn golden_corpus_is_pinned() {
    for (name, kind, bytes) in corpus() {
        let file = std::fs::read(path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            file == bytes,
            "{name}: the encoder no longer reproduces the committed bytes"
        );
        assert!(
            reencode(name, kind, &file) == file,
            "{name}: decoding and re-encoding changed the bytes"
        );
    }
    for (name, kind) in REENCODE_ONLY {
        let file = std::fs::read(path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            reencode(name, kind, &file) == file,
            "{name}: decoding and re-encoding changed the bytes"
        );
    }
}

#[test]
fn older_snapshots_are_refused() {
    for name in V2_SNAPSHOTS {
        let file = std::fs::read(path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        match open_session_snapshot(&file) {
            Err(SaError::Checkpoint(message)) => assert!(
                message.contains("version 2"),
                "{name}: the refusal must name version 2: {message}"
            ),
            other => panic!("{name}: a version 2 snapshot must be refused, got {other:?}"),
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden; run only for a deliberate format change"]
fn regenerate_golden_corpus() {
    for (name, _, bytes) in corpus() {
        std::fs::write(path(name), bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
