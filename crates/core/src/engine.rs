//! The engine contract behind incremental sessions.
//!
//! The paper's architecture (§4) separates *what* StreamApprox does every
//! interval — sample under a budget, estimate with error bounds, assemble
//! windows — from *where* it runs: a batched dataset engine, a pipelined
//! operator engine, or a plain consumer loop off a stream aggregator.
//! [`Engine`] is that separation as a trait: each substrate accepts items
//! one at a time, surfaces windows as their watermark closes them, and
//! settles into a [`RunOutput`] at end of stream. Every implementation
//! embeds the shared runtime parts ([`crate::ApproxRuntime`],
//! [`crate::IntervalWorker`], [`crate::WindowFinalizer`]) and adds only
//! its substrate's execution strategy: the push-driven engines do not
//! even cut their own panes — `push`, `push_chunk` and `finish` are calls
//! into the one pane driver of [`crate::runtime`], and the engine is the
//! sink it feeds.
//!
//! Applications normally do not touch this trait: they build an
//! [`crate::ApproxSession`] through the [`crate::StreamApprox`] builder,
//! which picks the engine and layers input validation on top. Implement
//! `Engine` to plug a new substrate (a sharded engine, a remote runner)
//! into the same session API via
//! [`crate::ApproxSession::from_engine`].

use crate::output::{RunOutput, WindowResult};
use sa_types::{EngineSnapshot, SaError, ShardIngest, StreamItem};

/// One execution substrate driving the approximation runtime
/// incrementally.
///
/// # Contract
///
/// * [`push`](Engine::push) receives items in non-decreasing event-time
///   order ([`crate::ApproxSession`] enforces this before delegating, so
///   implementations may trust it).
/// * [`poll_windows`](Engine::poll_windows) returns each completed window
///   exactly once, in watermark order, without blocking on future input.
///   Threaded engines may surface a window a moment after the items that
///   complete it were pushed; single-threaded engines surface it on the
///   very push that crosses the window boundary.
/// * [`finish`](Engine::finish) flushes every still-open window and
///   returns the run's output: the windows not yet taken through
///   `poll_windows`, plus ingestion/aggregation counters covering the
///   whole run.
pub trait Engine<R> {
    /// Ingests one item.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the substrate has shut down (e.g. an
    /// operator thread died); implementations must not panic on transport
    /// failure. [`SaError::InvalidConfig`] from engines on the shared pane
    /// driver when pane arithmetic on the item's event time would
    /// overflow: the item is not ingested and the engine stays usable.
    fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError>;

    /// Ingests a whole chunk of items (same ordering contract as
    /// [`push`](Engine::push): the chunk is internally non-decreasing in
    /// event time and no earlier than anything already pushed).
    ///
    /// The default implementation is a per-item [`push`](Engine::push)
    /// loop; engines on the shared pane driver override it, so
    /// pane-boundary checks run once per run and whole slices reach the
    /// samplers. Overrides must be observationally identical to the
    /// default — chunking is a throughput lever, never a semantic one.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] under the same conditions as
    /// [`push`](Engine::push); items before the failure point may have
    /// been ingested.
    fn push_chunk(&mut self, items: Vec<StreamItem<R>>) -> Result<(), SaError> {
        for item in items {
            self.push(item)?;
        }
        Ok(())
    }

    /// Takes the windows completed since the last poll.
    fn poll_windows(&mut self) -> Vec<WindowResult>;

    /// Settles any in-flight interval barrier so subsequent read-only
    /// probes ([`shard_ingest`](Engine::shard_ingest), a
    /// [`snapshot`](Engine::snapshot)) see state no older than the last
    /// closed pane. Engines that overlap interval merging with ingest —
    /// the sharded engine — block here until the pending merge resolves;
    /// everything else keeps the default no-op.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the substrate has shut down.
    fn settle(&mut self) -> Result<(), SaError> {
        Ok(())
    }

    /// Per-shard sampler counters for data-parallel substrates, in shard
    /// order, as of the last settled interval. Single-worker substrates
    /// keep the default empty answer; `ApproxSession::status` surfaces
    /// this through `SessionStatus::shards`.
    ///
    /// Read-only: counters are reported as of the last
    /// [`settle`](Engine::settle) (or pane close, whichever is later) —
    /// call `settle` first when freshness matters.
    fn shard_ingest(&self) -> Vec<ShardIngest> {
        Vec::new()
    }

    /// Serializes the engine's full mergeable state — reservoirs,
    /// per-stratum statistics, counters, pane cursor — into a versioned
    /// [`EngineSnapshot`]. Call [`settle`](Engine::settle) first so
    /// data-parallel engines snapshot quiescent state.
    ///
    /// The default answer is [`SaError::Checkpoint`]: engines support
    /// snapshots only when built with a record codec (see
    /// [`crate::StreamApprox::checkpointable`]), and some substrates
    /// (the pipelined engine, whose state lives in operator threads)
    /// do not support them at all.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when the engine cannot snapshot.
    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        Err(SaError::Checkpoint(
            "this engine does not support snapshots".into(),
        ))
    }

    /// Restores state captured by [`snapshot`](Engine::snapshot) into a
    /// freshly built engine of the same kind and configuration. The
    /// engine must verify `snapshot.engine` names it before decoding.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when the snapshot names a different
    /// engine or this engine cannot restore; [`SaError::Wire`] on
    /// corrupt state bytes.
    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let _ = snapshot;
        Err(SaError::Checkpoint(
            "this engine does not support restore".into(),
        ))
    }

    /// Panes closed (ingested into window assembly) over the run — the
    /// cadence counter checkpoint policies measure against. Engines
    /// without pane bookkeeping keep the default 0.
    fn panes_closed(&self) -> u64 {
        0
    }

    /// Informs the engine that a checkpoint of `snapshot_bytes` sealed
    /// bytes covering up to `pane` was taken, so substrates that report
    /// progress remotely (the distributed worker) can reset their
    /// exposure-to-loss counters. Default: ignored.
    fn note_checkpoint(&mut self, pane: Option<i64>, snapshot_bytes: u64) {
        let _ = (pane, snapshot_bytes);
    }

    /// Hands the engine the sealed session-snapshot bytes of the
    /// checkpoint just taken, so substrates with a remote coordinator
    /// (the distributed worker) can ship the slice upstream for
    /// dead-shard handoff. Called after
    /// [`note_checkpoint`](Engine::note_checkpoint). Default: ignored.
    fn publish_checkpoint(&mut self, sealed: &[u8]) {
        let _ = sealed;
    }

    /// Ends the stream: flushes trailing windows and returns the
    /// completed run.
    #[must_use = "finish returns the run's windows and metrics"]
    fn finish(self: Box<Self>) -> RunOutput;
}
