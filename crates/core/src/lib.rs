//! **StreamApprox** — approximate computing for stream analytics.
//!
//! A faithful Rust reproduction of *"StreamApprox: Approximate Computing
//! for Stream Analytics"* (Quoc, Chen, Bhatotia, Fetzer, Hilt, Strufe —
//! ACM/IFIP/USENIX Middleware 2017), complete with every substrate the
//! paper runs on: a batched stream engine (Spark Streaming analogue), a
//! pipelined stream engine (Flink analogue), a stream aggregator (Kafka
//! analogue), the sampling baselines from Spark MLib, and the evaluation's
//! workloads.
//!
//! The core idea: instead of processing every item of an unbounded stream,
//! sample it **online** with *Online Adaptive Stratified Reservoir
//! Sampling* (OASRS) — one fixed-size reservoir and one counter per
//! sub-stream — and answer linear queries (sum, mean, count, histogram)
//! from the weighted sample with rigorous error bounds, trading accuracy
//! for throughput under a user-specified budget.
//!
//! # Quick start: a live session
//!
//! Streams are unbounded, so the primary API is incremental: build a
//! [`StreamApprox`] session, `push` items as they arrive, and poll each
//! window's `output ± error bound` as the watermark closes it — long
//! before the stream ends.
//!
//! ```
//! use streamapprox::{Query, StreamApprox};
//! use sa_types::{EventTime, QueryBudget, StratumId, StreamItem, WindowSpec};
//!
//! let query = Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(2_000));
//! let mut session = StreamApprox::with_budget(query, QueryBudget::SampleFraction(0.3))
//!     .expect("valid budget")
//!     .start();
//!
//! // A stream with two sub-streams of very different sizes, arriving live.
//! for i in 0..10_000i64 {
//!     let stratum = if i % 100 == 0 { StratumId(1) } else { StratumId(0) };
//!     let item = StreamItem::new(stratum, EventTime::from_millis(i), f64::from(i as u32 % 50));
//!     session.push(item).expect("event-time ordered");
//!
//!     // Answers stream out while input keeps arriving.
//!     for window in session.poll_windows() {
//!         let (lo, hi) = window.mean.interval();
//!         assert!(lo <= window.mean.value && window.mean.value <= hi);
//!     }
//! }
//!
//! let out = session.finish();
//! assert!(out.items_aggregated < out.items_ingested);
//! ```
//!
//! # One-shot convenience
//!
//! For recorded streams, [`run_batched`]/[`run_pipelined`] wrap a session
//! (build → push everything → finish) and add the paper's baseline
//! systems; results are bit-for-bit identical to pushing the same items
//! incrementally.
//!
//! ```
//! use streamapprox::{
//!     run_batched, BatchedConfig, BatchedSystem, FixedFraction, Query,
//! };
//! use sa_batched::Cluster;
//! use sa_types::{EventTime, StratumId, StreamItem, WindowSpec};
//!
//! let items: Vec<StreamItem<f64>> = (0..10_000)
//!     .map(|i| {
//!         let stratum = if i % 100 == 0 { StratumId(1) } else { StratumId(0) };
//!         StreamItem::new(stratum, EventTime::from_millis(i), f64::from(i as u32 % 50))
//!     })
//!     .collect();
//!
//! let config = BatchedConfig::new(Cluster::new(2));
//! let query = Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(2_000));
//! let out = run_batched(
//!     &config,
//!     BatchedSystem::StreamApprox,
//!     &query,
//!     &mut FixedFraction(0.3),
//!     items,
//! );
//! assert!(out.items_aggregated < out.items_ingested);
//! ```
//!
//! # Map of the crate
//!
//! * [`Query`] — what to aggregate, over which sliding window, at which
//!   confidence.
//! * [`StreamApprox`] / [`ApproxSession`] — the incremental session API:
//!   `push`/`push_batch`/`ingest_consumer` in, `poll_windows`,
//!   `watermark`, `status` and `finish` out.
//! * [`Engine`] — the substrate contract behind sessions; implemented by
//!   the batched dataset engine, the pipelined operator engine, the
//!   sharded data-parallel engine ([`ShardedConfig`]: hash-partitioned
//!   worker threads over mergeable stratified samplers), and the
//!   aggregated consumer path ([`AggregatedConfig`]), each embedding the
//!   shared runtime. Implement it to plug in your own substrate via
//!   [`ApproxSession::from_engine`].
//! * [`StreamApprox::distributed`] / [`DistributedSession`] /
//!   [`connect_worker`] — the distributed tier: a TCP coordinator that
//!   assigns the run to worker processes, collects their per-pane sampler
//!   digests over the `sa-net` framed protocol, and merges them through
//!   the sharded engine's own pane barrier — bit-identical to the sharded
//!   engine at as many shards under every budget (each pane's merge is
//!   seeded by [`pane_merge_seed`] from its start).
//! * [`CostPolicy`] and its implementations ([`FixedFraction`],
//!   [`FixedPerStratum`], [`AccuracyPolicy`], [`LatencyPolicy`],
//!   [`TokenPolicy`]) — the paper's "virtual cost function" (§7) mapping a
//!   [`sa_types::QueryBudget`] to per-interval sample sizes;
//!   [`policy_for_budget`] builds one from a budget, [`PolicyHandle`]
//!   holds one borrowed or owned.
//! * [`ApproxRuntime`] (with [`IntervalWorker`] and [`WindowFinalizer`]) —
//!   the engine-agnostic approximation runtime: the shared per-interval
//!   loop of sampling, cost-policy feedback, window assembly and
//!   estimation that every engine embeds.
//! * [`run_batched`] with [`BatchedSystem`] — Spark-style execution:
//!   StreamApprox plus the SRS/STS/native baselines.
//! * [`run_pipelined`] with [`PipelinedSystem`] — Flink-style execution:
//!   StreamApprox plus native.
//! * [`WindowResult`] / [`RunOutput`] — per-window `output ± error bound`
//!   answers and run metrics.
//! * [`PaneWindower`] — pane-based window assembly, used by the runtime's
//!   [`WindowFinalizer`].
//! * [`StreamApprox::checkpointable`] / [`ApproxSession::checkpoint`] /
//!   [`StreamApprox::resume`] with [`CheckpointStore`] — bounded-error
//!   checkpoint & resume: snapshots of the mergeable sampler state
//!   (O(sampling budget), not O(stream)) under a
//!   [`sa_types::CheckpointPolicy`], sealed by [`seal_session_snapshot`]
//!   and replayed from the logged consumer offsets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregated;
mod batched;
mod checkpoint;
mod combine;
mod cost;
mod engine;
mod net;
mod output;
mod pipelined;
mod query;
mod runtime;
mod session;
mod sharded;
mod windowing;

pub use aggregated::AggregatedConfig;
pub use batched::{run_batched, BatchedConfig, BatchedSystem};
pub use checkpoint::{
    open_session_snapshot, seal_session_snapshot, CheckpointStore, FileCheckpointStore,
    MemoryCheckpointStore, RecordCodec,
};
pub use combine::PanePayload;
pub use cost::{
    confidence_for_budget, policy_for_budget, AccuracyPolicy, CostPolicy, FixedFraction,
    FixedPerStratum, IntervalFeedback, LatencyPolicy, PolicyHandle, SizingDirective, TokenPolicy,
};
pub use engine::Engine;
pub use net::{connect_worker, rejoin_worker, DigestEngine, DistributedConfig, DistributedSession};
pub use output::{RunOutput, WindowResult};
pub use pipelined::{run_pipelined, PipelinedConfig, PipelinedSystem};
pub use query::Query;
pub use runtime::{
    pane_merge_seed, sampler_sizing, ApproxRuntime, ExactAccumulator, IntervalWorker, ShardSet,
    WindowFinalizer, WorkerPane,
};
pub use session::{ApproxSession, StreamApprox};
pub use sharded::ShardedConfig;
pub use windowing::PaneWindower;
