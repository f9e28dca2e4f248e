//! The sharded data-parallel engine: hash-partitioned OASRS over
//! mergeable stratified samplers, on a lock-free SPSC ring fabric.
//!
//! StreamApprox's core scalability claim is that OASRS is *mergeable*:
//! shard-local samples combine without bias, so sampling parallelizes
//! across workers with no synchronization on the hot path (§3.2; the
//! distributed follow-up develops the same idea across nodes). This
//! engine is that claim as an execution substrate:
//!
//! * **Routing over bounded rings** — every accepted item is
//!   hash-partitioned ([`ShardSet::route`]) across `N` worker shards,
//!   each a thread owning its own per-stratum [`IntervalWorker`] (OASRS
//!   samplers at *full* per-stratum capacity, or exact Welford
//!   accumulators under native execution). Items travel in chunks over a
//!   pair of bounded SPSC rings per shard ([`crossbeam::spsc`]): a
//!   command ring down (arm/chunk/close, FIFO per shard) and a return
//!   ring back up (drained chunk buffers and close answers). The rings
//!   are lock-free slot arrays — no allocation, mutex or condvar wakeup
//!   per message on the hot path.
//! * **Buffer recycling** — a shard *drains* each chunk into its sampler
//!   and hands the emptied `Vec` back on the return ring; the router
//!   reuses it for a later chunk. At steady state routing therefore
//!   performs **zero allocations per chunk** (only the first ring-depth
//!   chunks are freshly allocated); the `chunks_routed`/`chunks_recycled`
//!   counters on [`ShardIngest`] make this observable.
//! * **Backpressure** — the command ring is bounded, so a shard that
//!   falls behind fills its ring and the router's `push` blocks (spinning
//!   and yielding, while still draining returns) instead of queueing
//!   unboundedly: a lagging shard costs latency, never unbounded memory.
//! * **Merge/ingest overlap** — at a pane boundary the engine broadcasts
//!   the close and *returns immediately*: shards answer the close and
//!   begin the next pane's chunks (already queued behind the close in
//!   FIFO order) while the caller keeps routing. Each answer is offered to
//!   the [`PaneBarrier`] the distributed coordinator merges through too,
//!   which merges the shard panes in canonical ascending-shard order
//!   ([`ShardSet::merge_panes`]) with the RNG seeded by
//!   [`crate::pane_merge_seed`] from the pane start; the merged pane goes
//!   to the shared [`ApproxRuntime`]. The close settles at the latest when
//!   the *next* pane closes, and eagerly on `poll_windows`/`status`.
//!   Exactly one close is ever in flight, so every answer is attributable
//!   without tags.
//!
//! # Watermark and ordering semantics
//!
//! The session in front of this engine enforces global event-time order,
//! and each shard's command ring is FIFO, so a shard observes its
//! sub-stream in stream order and always finishes pane `k` (by answering
//! its close) before touching pane `k+1` items. The engine's watermark
//! only advances when a barrier *resolves* — after every shard has
//! answered — so no shard can contribute items to a pane whose windows
//! the finalizer already sealed, and deferring the barrier never
//! reorders or loses data relative to the single-threaded engines. The
//! cost policy is consulted once per pane, as on the blocking design;
//! because the previous pane's merge may still be in flight at consult
//! time, feedback-driven policies observe each pane's feedback one pane
//! later than the batched engine (constant policies are unaffected).
//! With one shard the engine stays bit-for-bit identical to the batched
//! engine at the same seed and pane interval (`tests/engine_parity.rs`
//! holds that oracle); with many shards the answers agree statistically,
//! within the estimators' confidence bounds, and bit for bit with a
//! distributed run of as many workers at the same seed under every budget
//! (`tests/distributed.rs`).

use crate::checkpoint::{require_codec, require_engine, RecordCodec};
use crate::cost::{PolicyHandle, SizingDirective};
use crate::engine::Engine;
use crate::output::{RunOutput, WindowResult};
use crate::query::Query;
use crate::runtime::{
    ApproxRuntime, IntervalWorker, Offer, PaneBarrier, PaneDriver, PaneSink, ShardSet, WorkerPane,
};
use crossbeam::spsc;
use sa_types::wire::put_varint;
use sa_types::{
    EngineSnapshot, RunSeed, SaError, ShardIngest, StreamItem, Window, WireDecode, WireEncode,
    WireReader,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of the sharded engine for one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Number of worker shards (threads).
    pub shards: usize,
    /// Sampling-interval length in event-time milliseconds; `None` uses
    /// the longest interval that tiles the window — the greatest common
    /// divisor of its size and slide, which is the slide, the paper's
    /// interval choice (§5.5), whenever the slide divides the size. An
    /// explicit interval must divide that one: panes that straddle a
    /// window bound would be counted whole on one side of it, so the
    /// first push refuses the session with `SaError::InvalidConfig`.
    pub pane_interval_ms: Option<i64>,
    /// Items buffered per shard before a chunk is shipped to its thread;
    /// larger chunks amortize ring traffic, smaller ones reduce the
    /// sampling lag behind ingestion.
    pub chunk_items: usize,
    /// Chunks each shard's command ring holds before routing blocks on
    /// that shard — the backpressure depth. Smaller rings bound memory
    /// tighter and stall the router sooner behind a slow shard; larger
    /// rings absorb longer hiccups.
    pub ring_chunks: usize,
    /// Seed for every sampling (and merge) decision.
    pub seed: RunSeed,
    /// Expected items in the first pane — the fraction policy's
    /// first-interval capacity hint, exactly as on the pipelined engine;
    /// from the second pane on, sizing adapts from real arrival counters.
    pub expected_pane_items: usize,
}

impl ShardedConfig {
    /// A configuration with `shards` worker threads and defaults
    /// otherwise: slide-sized panes, 1024-item chunks, 8-chunk rings,
    /// default seed.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedConfig {
            shards,
            pane_interval_ms: None,
            chunk_items: 1_024,
            ring_chunks: 8,
            seed: RunSeed::DEFAULT,
            expected_pane_items: 0,
        }
    }

    /// Overrides the sampling-interval length.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive.
    #[must_use]
    pub fn with_pane_interval_ms(mut self, ms: i64) -> Self {
        assert!(ms > 0, "pane interval must be positive");
        self.pane_interval_ms = Some(ms);
        self
    }

    /// Sets the per-shard chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    #[must_use]
    pub fn with_chunk_items(mut self, items: usize) -> Self {
        assert!(items > 0, "chunk size must be positive");
        self.chunk_items = items;
        self
    }

    /// Sets the per-shard command-ring depth (in chunks).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    #[must_use]
    pub fn with_ring_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "ring depth must be positive");
        self.ring_chunks = chunks;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: impl Into<RunSeed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Sets the first-pane volume hint for fraction budgets.
    #[must_use]
    pub fn with_expected_pane_items(mut self, items: usize) -> Self {
        self.expected_pane_items = items;
        self
    }
}

/// Commands the engine sends down a shard's command ring.
enum ToShard<R> {
    /// Replace the shard's interval worker (first pane, or the cost
    /// policy changed its directive).
    Arm(Box<IntervalWorker<R>>),
    /// A chunk of routed items to observe, in stream order. The shard
    /// drains the buffer and returns it for recycling.
    Chunk(Vec<StreamItem<R>>),
    /// Close the current interval and answer with a [`ShardClose`].
    Close,
    /// Serialize the shard's worker state (for a checkpoint) and answer
    /// with a [`FromShard::Snapshot`]. Sent only on a quiescent fabric —
    /// after the close in flight settled and every buffer flushed — so
    /// the encoded state is exactly the shard's view of the open pane.
    Snapshot(RecordCodec<R>),
}

/// Traffic a shard sends back up its return ring.
enum FromShard<R> {
    /// A drained chunk buffer, ready for the router to reuse.
    Buffer(Vec<StreamItem<R>>),
    /// The shard's answer to the close in flight.
    Close(Box<ShardClose<R>>),
    /// The shard's answer to a [`ToShard::Snapshot`]: its serialized
    /// worker state (`Option<IntervalWorker>` as a tag byte + state).
    Snapshot(Vec<u8>),
}

/// One shard's answer to a close: the shard index is implied by which
/// return ring carried it, the pane by the one close in flight. The
/// counters are the shard's lifetime totals, across rearms.
struct ShardClose<R> {
    pane: WorkerPane<R>,
    ingested: u64,
    sampled: u64,
}

/// The shard worker loop: owns the shard's [`IntervalWorker`] between
/// rearms and runs until the engine drops the command ring's producer.
/// Drained chunk buffers and close answers travel back on `results`; a
/// dead engine (either ring disconnected) just ends the loop.
fn shard_loop<R>(
    mut commands: spsc::Consumer<ToShard<R>>,
    mut results: spsc::Producer<FromShard<R>>,
) {
    let mut worker: Option<IntervalWorker<R>> = None;
    while let Ok(command) = commands.pop() {
        match command {
            ToShard::Arm(mut fresh) => {
                if let Some(retiring) = &worker {
                    fresh.inherit_counters(retiring);
                }
                worker = Some(*fresh);
            }
            ToShard::Chunk(mut items) => {
                let worker = worker.as_mut().expect("shard armed before items");
                worker.observe_chunk(&mut items);
                if results.push(FromShard::Buffer(items)).is_err() {
                    return;
                }
            }
            ToShard::Close => {
                let worker = worker.as_mut().expect("shard armed before close");
                let pane = worker.close_interval_parts();
                let (ingested, sampled) = worker.counters();
                let answer = Box::new(ShardClose {
                    pane,
                    ingested,
                    sampled,
                });
                if results.push(FromShard::Close(answer)).is_err() {
                    return;
                }
            }
            ToShard::Snapshot(codec) => {
                let mut state = Vec::new();
                match &worker {
                    None => 0u8.encode(&mut state),
                    Some(worker) => {
                        1u8.encode(&mut state);
                        worker.encode_state(codec, &mut state);
                    }
                }
                if results.push(FromShard::Snapshot(state)).is_err() {
                    return;
                }
            }
        }
    }
}

/// The sharded substrate as an incremental [`Engine`]; see the module
/// docs for the execution model. The [`PaneDriver`] cuts the panes; the
/// sink is the shard fabric they are routed into.
pub(crate) struct ShardedEngine<'p, R> {
    driver: PaneDriver,
    sink: ShardedSink<'p, R>,
    codec: Option<RecordCodec<R>>,
}

/// The sharded engine's [`PaneSink`]: routes the open pane's items over
/// the ring fabric and turns a pane close into a deferred barrier.
struct ShardedSink<'p, R> {
    runtime: ApproxRuntime<'p, R>,
    barrier: PaneBarrier<R>,
    config: ShardedConfig,
    to_shards: Vec<spsc::Producer<ToShard<R>>>,
    from_shards: Vec<spsc::Consumer<FromShard<R>>>,
    threads: Vec<JoinHandle<()>>,
    buffers: Vec<Vec<StreamItem<R>>>,
    /// Drained chunk buffers returned by the shards, awaiting reuse. No
    /// cap is needed: a fresh buffer is only allocated when this is empty,
    /// so the buffer population is bounded by the fabric's peak demand.
    free: Vec<Vec<StreamItem<R>>>,
    counters: Vec<ShardIngest>,
    /// The one close allowed in flight — its pane start and the time spent
    /// broadcasting it — until the barrier merges the pane.
    closing: Option<(i64, u64)>,
    pane_open: bool,
    pane_arrived: u64,
    /// Items of the last closed pane: the close in flight's arrivals, and
    /// the next fraction-budget arm's volume hint.
    prev_pane_arrived: u64,
    seq: u64,
    alive: bool,
}

impl<'p, R> ShardedEngine<'p, R>
where
    R: Send + Sync + 'static,
{
    pub(crate) fn new(
        config: ShardedConfig,
        query: Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        codec: Option<RecordCodec<R>>,
    ) -> Self {
        let driver = PaneDriver::new(config.pane_interval_ms, query.window());
        let runtime = ApproxRuntime::new(&query, policy, config.seed, config.shards);
        let barrier = PaneBarrier::new(
            ShardSet::new(config.shards, config.seed, query.projection()),
            driver.interval_ms(),
        );
        let mut to_shards = Vec::with_capacity(config.shards);
        let mut from_shards = Vec::with_capacity(config.shards);
        let mut threads = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (cmd_tx, cmd_rx) = spsc::ring(config.ring_chunks);
            // The return ring is deeper than the command ring (buffers in
            // flight plus one close answer), so a shard essentially never
            // blocks handing buffers back; if it still fills, the
            // router's send loop drains it, so progress is guaranteed.
            let (ret_tx, ret_rx) = spsc::ring(config.ring_chunks + 2);
            to_shards.push(cmd_tx);
            from_shards.push(ret_rx);
            threads.push(std::thread::spawn(move || shard_loop(cmd_rx, ret_tx)));
        }
        let sink = ShardedSink {
            runtime,
            barrier,
            config,
            to_shards,
            from_shards,
            threads,
            buffers: (0..config.shards)
                .map(|_| Vec::with_capacity(config.chunk_items))
                .collect(),
            free: Vec::new(),
            counters: (0..config.shards)
                .map(|shard| ShardIngest {
                    shard,
                    ..ShardIngest::default()
                })
                .collect(),
            closing: None,
            pane_open: false,
            pane_arrived: 0,
            prev_pane_arrived: 0,
            seq: 0,
            alive: true,
        };
        ShardedEngine {
            driver,
            sink,
            codec,
        }
    }
}

impl<R> ShardedSink<'_, R>
where
    R: Send + Sync + 'static,
{
    fn dead(&mut self) -> SaError {
        self.alive = false;
        SaError::Disconnected("sharded worker thread died")
    }

    fn check_alive(&self) -> Result<(), SaError> {
        if self.alive {
            Ok(())
        } else {
            Err(SaError::Disconnected("sharded worker thread died"))
        }
    }

    /// Pops everything currently waiting in one shard's return ring:
    /// drained buffers go to the freelist, a close answer to the barrier.
    fn drain_returns(&mut self, shard: usize) -> Result<(), SaError> {
        loop {
            match self.from_shards[shard].try_pop() {
                Ok(FromShard::Buffer(buffer)) => self.free.push(buffer),
                Ok(FromShard::Close(answer)) => {
                    let (start, _) = self
                        .closing
                        .expect("close answer without a close in flight");
                    self.counters[shard].ingested = answer.ingested;
                    self.counters[shard].sampled = answer.sampled;
                    let offered = self.barrier.offer(shard, start, answer.pane);
                    debug_assert_eq!(offered, Offer::Held);
                }
                Ok(FromShard::Snapshot(_)) => unreachable!("snapshot answers are awaited"),
                Err(spsc::PopError::Empty) => return Ok(()),
                Err(spsc::PopError::Disconnected) => return Err(self.dead()),
            }
        }
    }

    /// Sends one command down a shard's ring, spinning (and draining the
    /// shard's returns, so the pair of bounded rings can never deadlock)
    /// while the ring is full. This wait *is* the backpressure: a slow
    /// shard stalls the router here with bounded memory in flight.
    fn send(&mut self, shard: usize, command: ToShard<R>) -> Result<(), SaError> {
        let mut command = command;
        let mut spins = 0u32;
        loop {
            match self.to_shards[shard].try_push(command) {
                Ok(()) => return Ok(()),
                Err(spsc::PushError::Disconnected(_)) => return Err(self.dead()),
                Err(spsc::PushError::Full(rejected)) => command = rejected,
            }
            self.drain_returns(shard)?;
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Arms the pane the driver just opened, unless it already is: consults
    /// the cost policy and, when its directive changed (or this is the first
    /// pane), arms every shard with a fresh worker. The arm command is
    /// FIFO-ordered behind the just-broadcast close, so the retiring
    /// worker still answers its pane before being replaced. With an
    /// unchanged directive the armed workers keep running, so capacity
    /// adaptation carries across panes exactly like the single-threaded
    /// sampler pool.
    fn ensure_armed(&mut self) -> Result<(), SaError> {
        self.check_alive()?;
        if self.pane_open {
            return Ok(());
        }
        let directive = self.runtime.interval_sizing();
        // Nothing armed yet: this is the first pane.
        let expected = if self.barrier.shards.directive().is_none() {
            self.config.expected_pane_items
        } else {
            self.prev_pane_arrived as usize
        };
        if let Some(workers) = self.barrier.shards.rearm(directive, expected) {
            for (shard, worker) in workers.into_iter().enumerate() {
                self.send(shard, ToShard::Arm(Box::new(worker)))?;
            }
        }
        self.pane_open = true;
        self.pane_arrived = 0;
        Ok(())
    }

    /// Routes the stream's next item into its shard's buffer, shipping the
    /// buffer when it reaches chunk size.
    #[inline]
    fn route(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        let shard = self.barrier.shards.route(item.stratum, self.seq);
        self.seq += 1;
        self.buffers[shard].push(item);
        if self.buffers[shard].len() >= self.config.chunk_items {
            self.flush(shard)?;
        }
        Ok(())
    }

    /// Flushes a shard's routing buffer to its thread, swapping in a
    /// recycled buffer from the freelist — the steady-state zero
    /// allocation path — or a fresh one only when no buffer has come
    /// back yet.
    fn flush(&mut self, shard: usize) -> Result<(), SaError> {
        if self.buffers[shard].is_empty() {
            return Ok(());
        }
        if self.free.is_empty() {
            // Refill opportunistically before paying for an allocation.
            for other in 0..self.config.shards {
                self.drain_returns(other)?;
            }
        }
        let replacement = match self.free.pop() {
            Some(buffer) => {
                self.counters[shard].chunks_recycled += 1;
                buffer
            }
            None => Vec::with_capacity(self.config.chunk_items),
        };
        self.counters[shard].chunks_routed += 1;
        let chunk = std::mem::replace(&mut self.buffers[shard], replacement);
        self.send(shard, ToShard::Chunk(chunk))
    }

    /// Closes the open pane *without waiting for the shards*: flushes
    /// every buffer and broadcasts the close. Shards answer at their own
    /// pace and move straight on to the next pane's chunks; the caller
    /// merges when the barrier has every answer. Strict depth-1: any
    /// previous close is settled first, so every incoming answer belongs
    /// to exactly one pane.
    fn begin_close(&mut self, window: Window) -> Result<(), SaError> {
        self.settle(true)?;
        // Only the close is clocked: routing stays clock-free, at the
        // price of process_nanos under-reporting the (concurrent)
        // per-item observe cost, like the aggregated engine.
        let closing = Instant::now();
        let start = window.start.as_millis();
        for shard in 0..self.config.shards {
            self.flush(shard)?;
        }
        // Set before the sends: a send drains returns, and a fast shard's
        // answer may already be among them.
        self.closing = Some((start, 0));
        for shard in 0..self.config.shards {
            self.send(shard, ToShard::Close)?;
        }
        self.closing = Some((start, closing.elapsed().as_nanos() as u64));
        self.prev_pane_arrived = self.pane_arrived;
        self.pane_open = false;
        Ok(())
    }

    /// Settles the close in flight once the barrier has every shard's
    /// answer — blocking until then when `wait`, else only if they are
    /// already in (the overlap's happy path, merging mid-ingest without
    /// waiting on a shard): hands the merged pane to the runtime and
    /// advances the watermark. A no-op when nothing is in flight.
    fn settle(&mut self, wait: bool) -> Result<(), SaError> {
        self.check_alive()?;
        let Some((_, nanos)) = self.closing else {
            return Ok(());
        };
        let merging = Instant::now();
        let mut spins = 0u32;
        let pane = loop {
            for shard in 0..self.config.shards {
                self.drain_returns(shard)?;
            }
            if let Some(pane) = self.barrier.take_ready(|_| false, |_| false) {
                break pane;
            }
            if !wait {
                return Ok(());
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        self.closing = None;
        let process_nanos = nanos + merging.elapsed().as_nanos() as u64;
        self.runtime.ingest_interval(
            pane.window,
            pane.payload,
            self.prev_pane_arrived,
            process_nanos,
        );
        self.runtime.close_interval(pane.window.end);
        Ok(())
    }
}

impl<R> PaneSink<R> for ShardedSink<'_, R>
where
    R: Send + Sync + 'static,
{
    #[inline]
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.ensure_armed()?;
        self.pane_arrived += 1;
        self.route(item)
    }

    /// Arm checks run once per run; routing stays per item by contract —
    /// `route(stratum, seq)` — but costs no RNG or locks.
    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        self.ensure_armed()?;
        self.pane_arrived += items.len() as u64;
        items.drain(..).try_for_each(|item| self.route(item))
    }

    /// A quiet interval is armed first, so it consults the policy like
    /// any other pane (mirroring the batched engine).
    fn close_pane(&mut self, pane: Window) -> Result<(), SaError> {
        self.ensure_armed()?;
        self.begin_close(pane)
    }
}

impl<R> Engine<R> for ShardedEngine<'_, R>
where
    R: Send + Sync + 'static,
{
    fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.driver.push(item, &mut self.sink)
    }

    fn push_chunk(&mut self, items: Vec<StreamItem<R>>) -> Result<(), SaError> {
        // Merge mid-ingest when the previous pane's answers are already
        // in — one cheap ring sweep per chunk call, not per item.
        self.sink.settle(false)?;
        self.driver.push_chunk(items, &mut self.sink)
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        // Settle a fully answered close so its windows are observable
        // now; an error here resurfaces on the next push/finish.
        let _ = self.sink.settle(false);
        self.sink.runtime.take_windows()
    }

    fn settle(&mut self) -> Result<(), SaError> {
        self.sink.settle(true)
    }

    fn shard_ingest(&self) -> Vec<ShardIngest> {
        // Read-only by contract: counters are as of the last answered
        // close — callers that need them no staler than the last closed
        // pane call `settle` first (the session's status path does).
        self.sink.counters.clone()
    }

    fn panes_closed(&self) -> u64 {
        self.sink.runtime.panes_closed()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        let codec = require_codec(self.codec)?;
        let sink = &mut self.sink;
        // Quiesce the fabric: settle the close in flight, hand every
        // buffered item to its shard, then ask each shard (FIFO behind
        // those chunks) for its serialized worker. The engine keeps
        // running afterwards — the snapshot is a pure read. The barrier
        // is empty now, so it holds no state.
        sink.settle(true)?;
        for shard in 0..sink.config.shards {
            sink.flush(shard)?;
        }
        let mut state = Vec::new();
        self.driver.start().encode(&mut state);
        put_varint(&mut state, sink.seq);
        put_varint(&mut state, sink.pane_arrived);
        put_varint(&mut state, sink.prev_pane_arrived);
        sink.pane_open.encode(&mut state);
        // The chunk counters depend on thread timing, so they are status,
        // not state: a resumed engine counts them from zero.
        let counters: Vec<(u64, u64)> = sink
            .counters
            .iter()
            .map(|shard| (shard.ingested, shard.sampled))
            .collect();
        counters.encode(&mut state);
        sink.barrier.shards.directive().encode(&mut state);
        for shard in 0..sink.config.shards {
            sink.send(shard, ToShard::Snapshot(codec))?;
            // With no close in flight, only drained buffers come first.
            loop {
                match sink.from_shards[shard].pop() {
                    Ok(FromShard::Buffer(buffer)) => sink.free.push(buffer),
                    Ok(FromShard::Snapshot(blob)) => break state.extend_from_slice(&blob),
                    Ok(FromShard::Close(_)) => unreachable!("no close in flight"),
                    Err(_) => return Err(sink.dead()),
                }
            }
        }
        sink.runtime.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "sharded".into(),
            pane: self.driver.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = require_codec(self.codec)?;
        require_engine(snapshot, "sharded")?;
        let sink = &mut self.sink;
        sink.check_alive()?;
        let mut r = WireReader::new(&snapshot.state);
        self.driver.restore_start(Option::decode(&mut r)?)?;
        sink.seq = r.read_varint()?;
        sink.pane_arrived = r.read_varint()?;
        sink.prev_pane_arrived = r.read_varint()?;
        sink.pane_open = bool::decode(&mut r)?;
        let counters = Vec::<(u64, u64)>::decode(&mut r)?;
        let shards = sink.config.shards;
        if counters.len() != shards {
            return Err(SaError::Checkpoint(format!(
                "snapshot covers {} shards but the engine has {shards}",
                counters.len()
            )));
        }
        for (shard, (ingested, sampled)) in sink.counters.iter_mut().zip(counters) {
            shard.ingested = ingested;
            shard.sampled = sampled;
        }
        let directive = Option::<SizingDirective>::decode(&mut r)?;
        // Force the armed directive so the next `ensure_armed` compares
        // against what the restored workers are actually running, instead
        // of rearming fresh ones over them.
        sink.barrier.shards.force_directive(directive);
        let proj = sink.barrier.shards.projection();
        for shard in 0..shards {
            match u8::decode(&mut r)? {
                0 => {}
                1 => {
                    let worker = IntervalWorker::decode_state(&mut r, codec, Arc::clone(&proj))?;
                    sink.send(shard, ToShard::Arm(Box::new(worker)))?;
                }
                tag => {
                    return Err(SaError::Wire(format!("unknown shard-worker tag {tag}")));
                }
            }
        }
        sink.runtime.restore_state(&mut r, codec)?;
        r.finish()
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        // A dead shard loses its trailing pane, like an operator death on
        // the pipelined engine.
        let _ = self.driver.finish(&mut self.sink);
        let _ = self.sink.settle(true);
        let ShardedSink {
            runtime,
            to_shards,
            threads,
            ..
        } = self.sink;
        // Dropping the command producers ends every shard loop; join so
        // no thread outlives the run.
        drop(to_shards);
        for thread in threads {
            let _ = thread.join();
        }
        runtime.finish()
    }
}
