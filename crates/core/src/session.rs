//! Incremental sessions: the push/poll API over any [`Engine`].
//!
//! The paper is about *unbounded* streams, so the primary API is not "hand
//! me the whole recording" but a live session: build a [`StreamApprox`]
//! (query + cost policy or budget + engine choice), [`start`] it, `push`
//! items as they arrive, `poll_windows` for every window the watermark has
//! closed so far, and `finish` for the final [`RunOutput`]. The one-shot
//! [`crate::run_batched`]/[`crate::run_pipelined`] entry points are thin
//! conveniences over exactly this session (build → push everything →
//! finish), so the two styles are bit-for-bit interchangeable.
//!
//! [`start`]: StreamApprox::start

use crate::aggregated::{AggregatedConfig, AggregatedEngine};
use crate::batched::{BatchedConfig, BatchedEngine};
use crate::checkpoint::{seal_session_snapshot, CheckpointStore, RecordCodec};
use crate::cost::{confidence_for_budget, policy_for_budget, PolicyHandle};
use crate::engine::Engine;
use crate::net::{DistributedConfig, DistributedSession};
use crate::output::{RunOutput, WindowResult};
use crate::pipelined::{PipelinedConfig, PipelinedEngine};
use crate::query::Query;
use crate::sharded::{ShardedConfig, ShardedEngine};
use sa_aggregator::Consumer;
use sa_types::{
    CheckpointPolicy, EventTime, IngestCounters, QueryBudget, SaError, SessionSnapshot,
    SessionStatus, StreamItem, WireDecode, WireEncode,
};

/// Deferred engine construction: each builder method captures its config
/// in a factory closure so that trait bounds stay per-engine — the
/// batched engine needs `R: Clone` for dataset formation, the pipelined
/// engine only `Send + Sync + 'static` for its threads, the aggregated
/// path nothing at all — instead of `start()` demanding their union. The
/// third argument is the record codec when the builder was made
/// checkpointable, threaded through to engines that snapshot.
type BuildFn<'p, R> =
    dyn FnOnce(Query<R>, PolicyHandle<'p>, Option<RecordCodec<R>>) -> Box<dyn Engine<R> + 'p> + 'p;

struct EngineFactory<'p, R> {
    name: &'static str,
    build: Box<BuildFn<'p, R>>,
}

fn aggregated_factory<'p, R: 'p>(config: AggregatedConfig) -> EngineFactory<'p, R> {
    EngineFactory {
        name: "aggregated",
        build: Box::new(move |query, policy, codec| {
            Box::new(AggregatedEngine::new(config, query, policy, codec))
        }),
    }
}

/// Builder for an incremental StreamApprox session: what to compute (a
/// [`Query`]), under which cost policy or budget, on which engine.
///
/// The default engine is the aggregated consumer path — the lightest
/// substrate, right for in-process consumer loops. Pick the batched or
/// pipelined engine to run the paper's Spark/Flink-style substrates (and
/// their baseline systems).
///
/// # Example
///
/// ```
/// use streamapprox::{Query, StreamApprox};
/// use sa_types::{EventTime, QueryBudget, StratumId, StreamItem, WindowSpec};
///
/// let query = Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000));
/// let mut session = StreamApprox::with_budget(query, QueryBudget::SampleFraction(0.4))
///     .expect("valid budget")
///     .start();
/// for i in 0..5_000i64 {
///     let item = StreamItem::new(StratumId(0), EventTime::from_millis(i), f64::from(i as u32 % 10));
///     session.push(item).expect("in-order push");
/// }
/// // Windows are observable while the stream is still open...
/// assert!(!session.poll_windows().is_empty());
/// // ...and finish() flushes the rest.
/// let out = session.finish();
/// assert!(out.items_aggregated < out.items_ingested);
/// ```
pub struct StreamApprox<'p, R> {
    query: Query<R>,
    policy: PolicyHandle<'p>,
    factory: EngineFactory<'p, R>,
    codec: Option<RecordCodec<R>>,
    checkpoint_policy: CheckpointPolicy,
}

impl<'p, R: 'p> StreamApprox<'p, R> {
    /// A builder executing `query` under `policy` — any
    /// [`crate::CostPolicy`] by `&mut` (the caller keeps the policy and
    /// observes the state feedback leaves behind) or an owned
    /// `Box<dyn CostPolicy>`.
    pub fn new(query: Query<R>, policy: impl Into<PolicyHandle<'p>>) -> Self {
        StreamApprox {
            query,
            policy: policy.into(),
            factory: aggregated_factory(AggregatedConfig::new()),
            codec: None,
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// A builder owning the policy a [`QueryBudget`] implies; the query's
    /// confidence is aligned with the budget's (accuracy budgets carry
    /// their own confidence level).
    ///
    /// # Errors
    ///
    /// Returns the budget's validation error if its parameters are out of
    /// range.
    pub fn with_budget(
        query: Query<R>,
        budget: QueryBudget,
    ) -> Result<StreamApprox<'static, R>, SaError>
    where
        R: 'static,
    {
        let confidence = confidence_for_budget(budget);
        let policy = policy_for_budget(budget)?;
        Ok(StreamApprox {
            query: query.with_confidence(confidence),
            policy: policy.into(),
            factory: aggregated_factory(AggregatedConfig::new()),
            codec: None,
            checkpoint_policy: CheckpointPolicy::default(),
        })
    }

    /// Enables checkpointing: the engine built by [`start`] carries a
    /// record codec so [`ApproxSession::checkpoint`] can serialize its
    /// reservoirs, and [`resume`](StreamApprox::resume) can rebuild them.
    /// Requires the record type to speak the workspace wire codec.
    ///
    /// [`start`]: StreamApprox::start
    #[must_use]
    pub fn checkpointable(mut self) -> Self
    where
        R: WireEncode + WireDecode,
    {
        self.codec = Some(RecordCodec::new());
        self
    }

    /// Sets when [`ApproxSession::checkpoint_due`] reports a checkpoint
    /// as due (default: at every pane close, no item budget).
    #[must_use]
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Runs the session on the batched (Spark-Streaming-style) engine.
    /// The system to run (StreamApprox or a baseline) is part of
    /// [`BatchedConfig`]; see [`BatchedConfig::with_system`].
    #[must_use]
    pub fn batched(mut self, config: BatchedConfig) -> Self
    where
        R: Send + Sync + Clone + 'static,
    {
        self.factory = EngineFactory {
            name: "batched",
            build: Box::new(move |query, policy, codec| {
                Box::new(BatchedEngine::new(config, query, policy, codec))
            }),
        };
        self
    }

    /// Runs the session on the pipelined (Flink-style) engine. The system
    /// to run is part of [`PipelinedConfig`]; see
    /// [`PipelinedConfig::with_system`]. The engine consults the policy
    /// once, at start: a sampling system under a policy that is not
    /// static ([`crate::CostPolicy::is_static`]) refuses every push with
    /// [`SaError::InvalidBudget`].
    #[must_use]
    pub fn pipelined(mut self, config: PipelinedConfig) -> Self
    where
        R: Send + Sync + 'static,
    {
        self.factory = EngineFactory {
            name: "pipelined",
            build: Box::new(move |query, mut policy, _codec| {
                // The pipelined engine consults the policy once at
                // startup (§4.2.2 adaptivity lives in OASRS itself), so
                // the engine does not carry the policy borrow. Its state
                // lives in operator threads, so it ignores the codec and
                // does not snapshot.
                Box::new(PipelinedEngine::new(
                    &config,
                    config.system,
                    &query,
                    &mut policy,
                ))
            }),
        };
        self
    }

    /// Runs the session on the sharded data-parallel engine: items are
    /// hash-partitioned across `config.shards` worker threads, each
    /// sampling its sub-stream with full-capacity OASRS, and the
    /// shard-local samples are merged by the mergeable-sampler layer at
    /// every interval close (see [`crate::ShardedConfig`]).
    #[must_use]
    pub fn sharded(mut self, config: ShardedConfig) -> Self
    where
        R: Send + Sync + 'static,
    {
        self.factory = EngineFactory {
            name: "sharded",
            build: Box::new(move |query, policy, codec| {
                Box::new(ShardedEngine::new(config, query, policy, codec))
            }),
        };
        self
    }

    /// Runs the session on the aggregated consumer path (the default).
    #[must_use]
    pub fn aggregated(mut self, config: AggregatedConfig) -> Self {
        self.factory = aggregated_factory(config);
        self
    }

    /// Starts the *distributed* coordinator for this query instead of a
    /// local session: binds a TCP listener, waits for `config.workers`
    /// worker processes to join (via [`crate::connect_worker`]), and
    /// merges their per-pane sampler digests through the same
    /// mergeable-sampler path the sharded engine uses in-process.
    ///
    /// The cost policy is consulted once at startup: the directive is
    /// part of every worker's assignment, so it is fixed for the run
    /// (per-interval adaptation still happens *inside* OASRS under a
    /// fraction directive, worker-locally), and the policy must be static
    /// ([`crate::CostPolicy::is_static`]).
    ///
    /// # Errors
    ///
    /// [`SaError::InvalidConfig`] when the configuration is unusable
    /// (zero workers, unbindable address, invalid directive);
    /// [`SaError::InvalidBudget`] when the policy is not static.
    pub fn distributed(mut self, config: DistributedConfig) -> Result<DistributedSession, SaError> {
        DistributedSession::start(
            self.query.window(),
            self.query.confidence(),
            &mut self.policy,
            config,
        )
    }

    /// Starts the session: builds the chosen engine (threaded engines
    /// start executing immediately) and returns the push/poll handle.
    pub fn start(self) -> ApproxSession<'p, R> {
        let StreamApprox {
            query,
            policy,
            factory,
            codec,
            checkpoint_policy,
        } = self;
        let mut session = ApproxSession::from_engine((factory.build)(query, policy, codec));
        session.checkpoint_policy = checkpoint_policy;
        session
    }

    /// Builds the chosen engine and restores it from a
    /// [`SessionSnapshot`], resuming the session where the checkpoint
    /// left off: engine state, watermark, counters, and the consumer
    /// replay offsets (the next
    /// [`ingest_consumer`](ApproxSession::ingest_consumer) seeks them
    /// before polling, so the already-counted log prefix is never
    /// double-counted).
    ///
    /// The builder must be configured exactly like the one that took the
    /// checkpoint — same engine, config, budget, and
    /// [`checkpointable`](StreamApprox::checkpointable) — since only the
    /// engine named in the snapshot can decode its state.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when the snapshot names a different engine
    /// or the builder is not checkpointable; [`SaError::Wire`] on corrupt
    /// snapshot state.
    pub fn resume(self, snapshot: &SessionSnapshot) -> Result<ApproxSession<'p, R>, SaError> {
        let StreamApprox {
            query,
            policy,
            factory,
            codec,
            checkpoint_policy,
        } = self;
        let engine = (factory.build)(query, policy, codec);
        let mut session = ApproxSession::resume_from_engine(engine, snapshot)?;
        session.checkpoint_policy = checkpoint_policy;
        Ok(session)
    }
}

impl<R> std::fmt::Debug for StreamApprox<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamApprox")
            .field("query", &self.query)
            .field("policy", &self.policy)
            .field("engine", &self.factory.name)
            .finish()
    }
}

/// A running incremental session over one [`Engine`].
///
/// The session is the ordering gatekeeper: items must arrive in
/// non-decreasing event-time order (merge out-of-order sources with
/// `sa_aggregator::merge_by_time` first), and every accepted item advances
/// the [`watermark`](ApproxSession::watermark). Engines behind the session
/// trust that ordering.
///
/// Dropping a session without [`finish`](ApproxSession::finish) discards
/// windows still open; threaded engines shut their topology down cleanly
/// either way.
pub struct ApproxSession<'p, R> {
    engine: Box<dyn Engine<R> + 'p>,
    watermark: Option<EventTime>,
    ingest: IngestCounters,
    completed: u64,
    checkpoint_policy: CheckpointPolicy,
    last_checkpoint_pane: Option<i64>,
    /// The engine's `panes_closed()` reading at the last checkpoint — the
    /// cadence baseline `checkpoint_due` measures against.
    panes_at_checkpoint: u64,
    items_since_checkpoint: u64,
    snapshot_bytes: u64,
    /// The log consumer's replay offsets: captured after every
    /// `ingest_consumer` poll so a checkpoint records exactly where the
    /// counted prefix ends.
    replay: Vec<(usize, u64)>,
    /// Set on resume: the next `ingest_consumer` must seek `replay`
    /// before polling.
    needs_seek: bool,
}

impl<'p, R> ApproxSession<'p, R> {
    /// Wraps a custom engine in the session API — the extension point for
    /// substrates this crate does not ship (sharded engines, remote
    /// runners).
    pub fn from_engine(engine: Box<dyn Engine<R> + 'p>) -> Self {
        ApproxSession {
            engine,
            watermark: None,
            ingest: IngestCounters::default(),
            completed: 0,
            checkpoint_policy: CheckpointPolicy::default(),
            last_checkpoint_pane: None,
            panes_at_checkpoint: 0,
            items_since_checkpoint: 0,
            snapshot_bytes: 0,
            replay: Vec::new(),
            needs_seek: false,
        }
    }

    /// Restores a custom engine from a [`SessionSnapshot`] and wraps it in
    /// a resumed session — [`from_engine`](ApproxSession::from_engine)'s
    /// counterpart to [`StreamApprox::resume`], for engines built outside
    /// the builder (a rejoining distributed worker adopting a dead shard's
    /// snapshot via [`crate::rejoin_worker`], a remote runner). The engine
    /// must be freshly built with the same configuration that produced the
    /// snapshot; session bookkeeping — watermark, counters, consumer
    /// replay offsets — resumes from the snapshot, and the next
    /// [`ingest_consumer`](ApproxSession::ingest_consumer) seeks the
    /// replay offsets so the counted log prefix is never double-counted.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when the snapshot names a different engine
    /// or the engine cannot restore; [`SaError::Wire`] on corrupt state.
    pub fn resume_from_engine(
        mut engine: Box<dyn Engine<R> + 'p>,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, SaError> {
        engine.restore(&snapshot.engine)?;
        let sealed = seal_session_snapshot(snapshot)?;
        engine.note_checkpoint(snapshot.engine.pane, sealed.len() as u64);
        let panes_at_checkpoint = engine.panes_closed();
        Ok(ApproxSession {
            engine,
            watermark: snapshot.watermark,
            ingest: snapshot.ingest,
            completed: snapshot.windows_completed,
            checkpoint_policy: CheckpointPolicy::default(),
            last_checkpoint_pane: snapshot.engine.pane,
            panes_at_checkpoint,
            items_since_checkpoint: 0,
            snapshot_bytes: sealed.len() as u64,
            replay: snapshot.replay.clone(),
            needs_seek: !snapshot.replay.is_empty(),
        })
    }

    /// Ingests one item.
    ///
    /// # Errors
    ///
    /// [`SaError::OutOfOrder`] if the item's event time is behind the
    /// session watermark (the item is not ingested and counts as dropped
    /// late data in the session's [`IngestCounters`]; the session remains
    /// usable), [`SaError::InvalidConfig`] if the event time is so close
    /// to the ends of `i64` that pane or window arithmetic on it would
    /// overflow (the item is not ingested; the session remains usable),
    /// or [`SaError::Disconnected`] if the engine has shut down.
    pub fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        if let Some(watermark) = self.watermark {
            if item.time < watermark {
                self.ingest.dropped_late += 1;
                return Err(SaError::OutOfOrder {
                    item: item.time,
                    watermark,
                });
            }
        }
        let time = item.time;
        self.engine.push(item)?;
        self.watermark = Some(time);
        self.ingest.ingested += 1;
        self.items_since_checkpoint += 1;
        Ok(())
    }

    /// Ingests a batch of items through the engines' batch fast path,
    /// returning the call's [`IngestCounters`] delta.
    ///
    /// Late items (behind the running watermark) are **dropped and
    /// counted**, not an error — the same drop-late-and-continue
    /// accounting as [`ingest_consumer`](ApproxSession::ingest_consumer),
    /// so one straggler no longer aborts the rest of the batch. The kept
    /// subsequence is validated as one monotone run and forwarded to
    /// [`Engine::push_chunk`] whole, so watermark checks and pane-boundary
    /// work run per run instead of per item.
    ///
    /// # Errors
    ///
    /// [`SaError::InvalidConfig`] if a kept item's event time is
    /// unrepresentable as under [`push`](ApproxSession::push) — the whole
    /// batch is refused and none of it ingested;
    /// [`SaError::Disconnected`] if the engine has shut down — items
    /// before the failure point may have been ingested, and the delta for
    /// the batch is lost with the run.
    pub fn push_batch(
        &mut self,
        items: impl IntoIterator<Item = StreamItem<R>>,
    ) -> Result<IngestCounters, SaError> {
        let mut items: Vec<StreamItem<R>> = items.into_iter().collect();
        let mut delta = IngestCounters::default();
        // Keep the running-max subsequence — exactly the items a per-item
        // push loop would have accepted, since the watermark advances only
        // on accepted items.
        let mut watermark = self.watermark;
        items.retain(|item| {
            let keep = watermark.map_or(true, |w| item.time >= w);
            if keep {
                watermark = Some(item.time);
            } else {
                delta.dropped_late += 1;
            }
            keep
        });
        self.ingest.dropped_late += delta.dropped_late;
        if items.is_empty() {
            return Ok(delta);
        }
        delta.ingested = items.len() as u64;
        let last = items.last().expect("non-empty batch").time;
        self.engine.push_chunk(items)?;
        self.watermark = Some(last);
        self.ingest.ingested += delta.ingested;
        self.items_since_checkpoint += delta.ingested;
        Ok(delta)
    }

    /// Polls an aggregator consumer once and ingests what it returns —
    /// the paper's deployment loop (aggregator → consumer → engine) in one
    /// call. Returns the call's [`IngestCounters`] delta (the same
    /// accounting [`status`](ApproxSession::status) accumulates run-wide);
    /// both counters are `0` when the consumer is caught up (see
    /// `Consumer::is_caught_up` for distinguishing idle from finished).
    ///
    /// Polling has already advanced the consumer's offsets, so items it
    /// returns cannot be retried: ones behind the session watermark are
    /// **dropped as late data** — standard streaming semantics — and
    /// counted in [`IngestCounters::dropped_late`] rather than aborting
    /// the batch. A topic whose delivery order respects event time (a
    /// single-partition topic — the paper's aggregator combines
    /// sub-streams into *one* input stream, §2.1 — or one session per
    /// partition) never drops anything.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the engine has shut down; items
    /// polled but not yet pushed are lost with it (the run is over).
    pub fn ingest_consumer(
        &mut self,
        consumer: &mut Consumer<R>,
        max_messages: usize,
    ) -> Result<IngestCounters, SaError>
    where
        R: Clone,
    {
        // A resumed session replays the log from its snapshot's offsets:
        // the already-counted prefix is skipped at the log, not dropped
        // as late data.
        if self.needs_seek {
            consumer.seek(&self.replay)?;
            self.needs_seek = false;
        }
        // Same drop-late accounting as push_batch, and the polled batch
        // rides the engines' chunk fast path.
        let delta = self.push_batch(consumer.poll_items(max_messages))?;
        // Remember where the counted prefix ends, so a checkpoint taken
        // now records exactly this poll boundary.
        self.replay = consumer.offsets();
        Ok(delta)
    }

    /// Takes the windows completed since the last poll, in watermark
    /// order, without blocking on future input. On threaded engines a
    /// window may surface a moment after the pushes that completed it; on
    /// single-threaded engines it surfaces on the boundary-crossing push
    /// itself.
    pub fn poll_windows(&mut self) -> Vec<WindowResult> {
        let windows = self.engine.poll_windows();
        self.completed += windows.len() as u64;
        windows
    }

    /// The event-time high-water mark of accepted input: the time of the
    /// latest pushed item, `None` before the first. Items behind it are
    /// rejected as out of order.
    pub fn watermark(&self) -> Option<EventTime> {
        self.watermark
    }

    /// Settles any in-flight interval barrier, so the next
    /// [`status`](ApproxSession::status) reports shard counters no staler
    /// than the last closed pane. A no-op on engines without deferred
    /// barriers (everything but the sharded engine).
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the engine has shut down.
    pub fn settle(&mut self) -> Result<(), SaError> {
        self.engine.settle()
    }

    /// A snapshot of the session's progress counters: pushes, polls,
    /// watermark, the unified [`IngestCounters`] across every ingestion
    /// path, checkpoint exposure, and — on data-parallel engines —
    /// per-shard sampler counters.
    ///
    /// Read-only: on the sharded engine the shard counters are as of the
    /// last settled interval barrier — call
    /// [`settle`](ApproxSession::settle) first when freshness matters.
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            items_pushed: self.ingest.ingested,
            windows_completed: self.completed,
            watermark: self.watermark,
            ingest: self.ingest,
            shards: self.engine.shard_ingest(),
            workers: Vec::new(),
            last_checkpoint_pane: self.last_checkpoint_pane,
            items_since_checkpoint: self.items_since_checkpoint,
            snapshot_bytes: self.snapshot_bytes,
            degraded_panes: 0,
            lost_items: 0,
        }
    }

    /// Whether the session's [`CheckpointPolicy`] says a checkpoint is
    /// due — enough panes closed, or enough items accepted, since the
    /// last one.
    pub fn checkpoint_due(&self) -> bool {
        let panes_since = self
            .engine
            .panes_closed()
            .saturating_sub(self.panes_at_checkpoint);
        self.checkpoint_policy.due(
            panes_since.min(u64::from(u32::MAX)) as u32,
            self.items_since_checkpoint,
        )
    }

    /// Takes a checkpoint: settles the engine, snapshots its mergeable
    /// state (O(sampling budget), not O(stream)), and wraps it with the
    /// session's watermark, counters, and log replay offsets. The
    /// session keeps running; feed the snapshot to
    /// [`StreamApprox::resume`] (usually via a
    /// [`CheckpointStore`]) after a crash.
    ///
    /// A checkpoint taken at a pane boundary restores bit-identically; one
    /// taken mid-pane restores the engine exactly as of the items pushed
    /// so far, so replaying the rest of the stream stays within the
    /// estimator's confidence bounds of an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when the engine cannot snapshot (built
    /// without [`StreamApprox::checkpointable`], or a substrate that does
    /// not support snapshots); [`SaError::Disconnected`] if the engine has
    /// shut down.
    pub fn checkpoint(&mut self) -> Result<SessionSnapshot, SaError> {
        Ok(self.checkpoint_sealed()?.0)
    }

    /// Takes a checkpoint, returning the snapshot and its sealed frame —
    /// the one frame the session measures, publishes and stores.
    fn checkpoint_sealed(&mut self) -> Result<(SessionSnapshot, Vec<u8>), SaError> {
        self.engine.settle()?;
        let engine_snapshot = self.engine.snapshot()?;
        let snapshot = SessionSnapshot {
            engine: engine_snapshot,
            watermark: self.watermark,
            ingest: self.ingest,
            items_pushed: self.ingest.ingested,
            windows_completed: self.completed,
            replay: self.replay.clone(),
        };
        let sealed = seal_session_snapshot(&snapshot)?;
        self.snapshot_bytes = sealed.len() as u64;
        self.last_checkpoint_pane = snapshot.engine.pane;
        self.panes_at_checkpoint = self.engine.panes_closed();
        self.items_since_checkpoint = 0;
        self.engine
            .note_checkpoint(snapshot.engine.pane, self.snapshot_bytes);
        // Substrates with a remote coordinator ship the sealed slice
        // upstream so a replacement worker can adopt this shard's state.
        self.engine.publish_checkpoint(&sealed);
        Ok((snapshot, sealed))
    }

    /// Takes a checkpoint and persists its sealed frame to `store`,
    /// returning the sealed size in bytes. Load it back with
    /// [`CheckpointStore::load`] +
    /// [`crate::open_session_snapshot`] + [`StreamApprox::resume`].
    ///
    /// # Errors
    ///
    /// Everything [`checkpoint`](ApproxSession::checkpoint) can return,
    /// plus the store's I/O errors.
    pub fn checkpoint_to(&mut self, store: &mut dyn CheckpointStore) -> Result<u64, SaError> {
        let (_, sealed) = self.checkpoint_sealed()?;
        store.save(&sealed)?;
        Ok(sealed.len() as u64)
    }

    /// Ends the stream: flushes every still-open window and returns the
    /// completed run. The output's `windows` are those not already taken
    /// via [`poll_windows`](ApproxSession::poll_windows) — a session that
    /// never polled gets the full set, exactly like the one-shot entry
    /// points — and the item counters always cover the whole run.
    #[must_use = "finish returns the run's windows and metrics"]
    pub fn finish(self) -> RunOutput {
        self.engine.finish()
    }
}

impl<R> std::fmt::Debug for ApproxSession<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApproxSession")
            .field("watermark", &self.watermark)
            .field("ingest", &self.ingest)
            .field("windows_completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FixedFraction;
    use sa_types::{StratumId, WindowSpec};

    fn item(ms: i64, v: f64) -> StreamItem<f64> {
        StreamItem::new(StratumId(0), EventTime::from_millis(ms), v)
    }

    fn query() -> Query<f64> {
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000))
    }

    #[test]
    fn out_of_order_push_is_rejected_and_session_survives() {
        let mut policy = FixedFraction(1.0);
        let mut session = StreamApprox::new(query(), &mut policy).start();
        session.push(item(500, 1.0)).expect("in order");
        let err = session.push(item(100, 2.0)).unwrap_err();
        assert!(matches!(err, SaError::OutOfOrder { .. }));
        // The session keeps working after a rejected item.
        session
            .push(item(500, 3.0))
            .expect("equal time is in order");
        session.push(item(1_500, 4.0)).expect("in order");
        let out = session.finish();
        assert_eq!(out.items_ingested, 3);
    }

    #[test]
    fn status_tracks_pushes_polls_and_watermark() {
        let mut policy = FixedFraction(1.0);
        let mut session = StreamApprox::new(query(), &mut policy).start();
        assert_eq!(
            session.status(),
            SessionStatus {
                items_pushed: 0,
                windows_completed: 0,
                watermark: None,
                ingest: IngestCounters::default(),
                shards: Vec::new(),
                workers: Vec::new(),
                last_checkpoint_pane: None,
                items_since_checkpoint: 0,
                snapshot_bytes: 0,
                degraded_panes: 0,
                lost_items: 0,
            }
        );
        for ms in [0, 400, 1_200, 2_600] {
            session.push(item(ms, 1.0)).expect("in order");
        }
        let polled = session.poll_windows();
        let status = session.status();
        assert_eq!(status.items_pushed, 4);
        assert_eq!(status.windows_completed, polled.len() as u64);
        assert_eq!(status.watermark, Some(EventTime::from_millis(2_600)));
        assert!(
            !polled.is_empty(),
            "watermark 2.6s closed the [0,1s) window"
        );
    }

    #[test]
    fn late_pushes_count_as_dropped_in_the_unified_ingest() {
        let mut policy = FixedFraction(1.0);
        let mut session = StreamApprox::new(query(), &mut policy).start();
        session.push(item(900, 1.0)).expect("in order");
        assert!(session.push(item(100, 2.0)).is_err());
        assert!(session.push(item(200, 3.0)).is_err());
        let status = session.status();
        assert_eq!(
            status.ingest,
            IngestCounters {
                ingested: 1,
                dropped_late: 2,
            }
        );
        assert_eq!(status.ingest.offered(), 3);
        // Single-worker engines report no shard counters.
        assert!(status.shards.is_empty());
        let _ = session.finish();
    }

    #[test]
    fn budget_builder_sets_confidence_and_owns_policy() {
        let budget = QueryBudget::Accuracy {
            max_relative_error: 0.05,
            confidence: sa_types::Confidence::P997,
        };
        let mut session = StreamApprox::with_budget(query(), budget)
            .expect("valid budget")
            .start();
        for ms in 0..2_000 {
            session
                .push(item(ms, f64::from(ms as u32 % 7)))
                .expect("in order");
        }
        let out = session.finish();
        assert!(!out.windows.is_empty());
        assert_eq!(
            out.windows[0].mean.bound.confidence(),
            sa_types::Confidence::P997
        );
        assert!(StreamApprox::with_budget(query(), QueryBudget::SampleFraction(0.0)).is_err());
    }

    #[test]
    fn invalid_engine_is_a_session_not_a_panic() {
        // from_engine accepts any Engine implementation.
        struct Null;
        impl Engine<f64> for Null {
            fn push(&mut self, _: StreamItem<f64>) -> Result<(), SaError> {
                Err(SaError::Disconnected("null engine"))
            }
            fn poll_windows(&mut self) -> Vec<WindowResult> {
                Vec::new()
            }
            fn finish(self: Box<Self>) -> RunOutput {
                RunOutput {
                    windows: Vec::new(),
                    items_ingested: 0,
                    items_aggregated: 0,
                    elapsed: std::time::Duration::ZERO,
                }
            }
        }
        let mut session = ApproxSession::from_engine(Box::new(Null));
        let err = session.push(item(0, 1.0)).unwrap_err();
        assert!(matches!(err, SaError::Disconnected(_)));
        // A rejected push must not advance the watermark.
        assert_eq!(session.watermark(), None);
        assert_eq!(session.status().items_pushed, 0);
    }
}
