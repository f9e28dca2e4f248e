//! The batched (Spark-Streaming-style) runners: StreamApprox and its three
//! baselines on the `sa-batched` engine.
//!
//! The architectural contrast the paper measures (§4.2.1) is *where*
//! sampling happens:
//!
//! * **StreamApprox** samples items "on-the-fly ... before items are
//!   transformed into RDDs": the per-batch OASRS pass runs on the raw
//!   receiver-side items, and only the (small) sample enters the engine as
//!   a dataset for the data-parallel query job.
//! * **SRS** builds the full dataset, then runs distributed ScaSRS on it —
//!   random keys for every item, a driver-side sort of the wait-list.
//! * **STS** builds the full dataset, then `groupBy(strata)` (a full hash
//!   shuffle with worker synchronization) and a per-stratum random sort.
//! * **Native** builds the full dataset and aggregates everything.
//!
//! This module is a thin adapter: it expresses only the engine-specific
//! parts above (dataset formation, cluster shuffles). The per-interval
//! loop — cost-policy feedback, sampler lifecycle, window assembly,
//! estimation — is the shared [`crate::runtime::ApproxRuntime`], and the
//! drive loop itself is [`BatchedEngine`], an incremental
//! [`Engine`](crate::Engine) that forms micro-batches as items arrive.
//! [`run_batched`] is a convenience wrapper: one session, one
//! `push_batch`, one `finish`.

use crate::checkpoint::{require_codec, require_engine, RecordCodec};
use crate::combine::PanePayload;
use crate::cost::{CostPolicy, PolicyHandle, SizingDirective};
use crate::engine::Engine;
use crate::output::{RunOutput, WindowResult};
use crate::query::Query;
use crate::runtime::{ApproxRuntime, ExactAccumulator, PaneDriver, PaneSink};
use crate::session::StreamApprox;
use sa_batched::{Cluster, MicroBatch, Pds};
use sa_estimate::StratumStats;
use sa_types::wire::put_varint;
use sa_types::{
    EngineSnapshot, EventTime, RunSeed, SaError, StratumId, StreamItem, Window, WireDecode,
    WireEncode, WireReader,
};
use std::sync::Arc;
use std::time::Instant;

/// Which batched system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchedSystem {
    /// Spark-based StreamApprox: OASRS before dataset formation.
    StreamApprox,
    /// Spark-based simple random sampling (`sample` via distributed
    /// ScaSRS).
    Srs,
    /// Spark-based stratified sampling (`groupBy` + per-stratum random
    /// sort).
    Sts,
    /// Native execution without sampling.
    Native,
}

impl std::fmt::Display for BatchedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchedSystem::StreamApprox => write!(f, "Spark-based StreamApprox"),
            BatchedSystem::Srs => write!(f, "Spark-based SRS"),
            BatchedSystem::Sts => write!(f, "Spark-based STS"),
            BatchedSystem::Native => write!(f, "Native Spark"),
        }
    }
}

/// Configuration of the batched engine for one run, including which
/// batched [`system`](BatchedConfig::system) executes each pane.
#[derive(Debug, Clone)]
pub struct BatchedConfig {
    /// The worker pool (topology decides shuffle locality).
    pub cluster: Cluster,
    /// Which batched system runs the panes (StreamApprox by default).
    pub system: BatchedSystem,
    /// Micro-batch interval in milliseconds (the paper sweeps 250–1000 ms,
    /// Figure 4c). It must divide both the window size and the slide —
    /// a batch that straddles a window bound would be counted whole on one
    /// side of it — or the first push refuses the session with
    /// `SaError::InvalidConfig`.
    pub batch_interval_ms: i64,
    /// Dataset partitions per batch.
    pub num_partitions: usize,
    /// Parallel receiver-side sampling workers for StreamApprox.
    pub sample_workers: usize,
    /// Seed for every sampling decision in the run.
    pub seed: RunSeed,
}

impl BatchedConfig {
    /// A small-machine default: StreamApprox with 250 ms batches on the
    /// given cluster.
    pub fn new(cluster: Cluster) -> Self {
        let workers = cluster.num_workers();
        BatchedConfig {
            cluster,
            system: BatchedSystem::StreamApprox,
            batch_interval_ms: 250,
            num_partitions: workers.max(2),
            sample_workers: workers.max(1),
            seed: RunSeed::DEFAULT,
        }
    }

    /// Selects which batched system runs the panes.
    #[must_use]
    pub fn with_system(mut self, system: BatchedSystem) -> Self {
        self.system = system;
        self
    }

    /// Sets the batch interval.
    #[must_use]
    pub fn with_batch_interval_ms(mut self, ms: i64) -> Self {
        assert!(ms > 0, "batch interval must be positive");
        self.batch_interval_ms = ms;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: impl Into<RunSeed>) -> Self {
        self.seed = seed.into();
        self
    }
}

/// Splits a batch into `n` contiguous chunks for the sampling workers.
fn chunks_of<T>(mut items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let total = items.len();
    let per = total.div_ceil(n.max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    while items.len() > per {
        let rest = items.split_off(per);
        out.push(std::mem::replace(&mut items, rest));
    }
    out.push(items);
    while out.len() < n {
        out.push(Vec::new());
    }
    out
}

/// Runs one batched system over a recorded stream, returning the completed
/// windows and run metrics.
///
/// This is the one-shot convenience over an incremental
/// [`crate::ApproxSession`]: it builds a batched session, pushes the whole
/// recording, and finishes. Pushing the same items through a session by
/// hand — item by item or in arbitrary chunks — produces bit-for-bit the
/// same windows.
///
/// # Panics
///
/// Panics if an SRS/STS baseline is driven by a non-fraction budget (the
/// baselines are defined in terms of a sampling fraction; use
/// [`crate::FixedFraction`]), or if `items` is not in non-decreasing
/// event-time order.
#[must_use = "the run's windows and metrics are its only product"]
pub fn run_batched<R>(
    config: &BatchedConfig,
    system: BatchedSystem,
    query: &Query<R>,
    policy: &mut dyn CostPolicy,
    items: Vec<StreamItem<R>>,
) -> RunOutput
where
    R: Send + Sync + Clone + 'static,
{
    let mut session = StreamApprox::new(query.clone(), policy)
        .batched(config.clone().with_system(system))
        .start();
    session
        .push_batch(items)
        .expect("recorded streams are event-time ordered");
    session.finish()
}

/// The batched substrate as an incremental [`Engine`]: the [`PaneDriver`]
/// cuts the stream into micro-batches, and every time an item crosses the
/// batch-interval boundary the sink runs the pane job exactly as the
/// one-shot path would — dataset formation, cluster shuffles, OASRS before
/// RDD formation — then advances the runtime's watermark.
pub(crate) struct BatchedEngine<'p, R> {
    driver: PaneDriver,
    sink: BatchedSink<'p, R>,
    codec: Option<RecordCodec<R>>,
}

/// The batched engine's [`PaneSink`]: buffers the open micro-batch and
/// runs the configured system's pane job over it at close.
struct BatchedSink<'p, R> {
    config: BatchedConfig,
    query: Query<R>,
    runtime: ApproxRuntime<'p, R>,
    pane_items: Vec<StreamItem<R>>,
    pane_idx: u64,
}

impl<'p, R> BatchedEngine<'p, R>
where
    R: Send + Sync + Clone + 'static,
{
    pub(crate) fn new(
        config: BatchedConfig,
        query: Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        codec: Option<RecordCodec<R>>,
    ) -> Self {
        let runtime = ApproxRuntime::new(&query, policy, config.seed, config.sample_workers.max(1));
        BatchedEngine {
            driver: PaneDriver::new(Some(config.batch_interval_ms), query.window()),
            sink: BatchedSink {
                config,
                query,
                runtime,
                pane_items: Vec::new(),
                pane_idx: 0,
            },
            codec,
        }
    }
}

impl<R> PaneSink<R> for BatchedSink<'_, R>
where
    R: Send + Sync + Clone + 'static,
{
    #[inline]
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.pane_items.push(item);
        Ok(())
    }

    /// Sampling happens at close either way, so buffering a run at once
    /// is trivially identical to buffering it item by item.
    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        if self.pane_items.is_empty() {
            std::mem::swap(&mut self.pane_items, items);
        } else {
            self.pane_items.append(items);
        }
        Ok(())
    }

    /// Runs the pane job over the buffered items (possibly none, for a
    /// quiet interval) and advances the watermark to the pane end.
    fn close_pane(&mut self, window: Window) -> Result<(), SaError> {
        let batch = MicroBatch {
            window,
            items: std::mem::take(&mut self.pane_items),
        };
        let directive = self.runtime.interval_sizing();
        let pane_started = Instant::now();
        let arrived = batch.items.len() as u64;
        let system = self.config.system;
        let payload = match (system, directive) {
            (BatchedSystem::Native, _) | (_, SizingDirective::Everything) => {
                native_pane(&self.config, &self.query, batch)
            }
            (BatchedSystem::StreamApprox, d) => {
                streamapprox_pane(&self.config, &self.query, batch, d, &mut self.runtime)
            }
            (BatchedSystem::Srs, SizingDirective::Fraction(f)) => {
                srs_pane(&self.config, &self.query, batch, f, self.pane_idx)
            }
            (BatchedSystem::Sts, SizingDirective::Fraction(f)) => {
                sts_pane(&self.config, &self.query, batch, f, self.pane_idx)
            }
            (BatchedSystem::Srs | BatchedSystem::Sts, d) => {
                panic!("the {system} baseline needs a fraction budget, got {d:?}")
            }
        };
        let process_nanos = pane_started.elapsed().as_nanos() as u64;
        self.runtime
            .ingest_interval(window, payload, arrived, process_nanos);
        self.runtime.close_interval(window.end);
        self.pane_idx += 1;
        Ok(())
    }
}

impl<R> Engine<R> for BatchedEngine<'_, R>
where
    R: Send + Sync + Clone + 'static,
{
    fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.driver.push(item, &mut self.sink)
    }

    fn push_chunk(&mut self, items: Vec<StreamItem<R>>) -> Result<(), SaError> {
        self.driver.push_chunk(items, &mut self.sink)
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        self.sink.runtime.take_windows()
    }

    fn panes_closed(&self) -> u64 {
        self.sink.runtime.panes_closed()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        let codec = require_codec(self.codec)?;
        let sink = &self.sink;
        let mut state = Vec::new();
        put_varint(&mut state, sink.pane_idx);
        self.driver.start().encode(&mut state);
        // The open pane's buffered items: a micro-batch engine samples at
        // pane close, so mid-pane state is the raw buffer itself — still
        // O(pane), never O(stream).
        put_varint(&mut state, sink.pane_items.len() as u64);
        for item in &sink.pane_items {
            item.stratum.encode(&mut state);
            item.time.encode(&mut state);
            (codec.encode)(&item.value, &mut state);
        }
        sink.runtime.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "batched".into(),
            pane: self.driver.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = require_codec(self.codec)?;
        require_engine(snapshot, "batched")?;
        let sink = &mut self.sink;
        let mut r = WireReader::new(&snapshot.state);
        sink.pane_idx = r.read_varint()?;
        self.driver.restore_start(Option::decode(&mut r)?)?;
        let n = r.read_len()?;
        let mut pane_items = Vec::with_capacity(n);
        for _ in 0..n {
            let stratum = StratumId::decode(&mut r)?;
            let time = EventTime::decode(&mut r)?;
            let value = (codec.decode)(&mut r)?;
            pane_items.push(StreamItem {
                stratum,
                time,
                value,
            });
        }
        sink.pane_items = pane_items;
        sink.runtime.restore_state(&mut r, codec)?;
        r.finish()
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        self.driver
            .finish(&mut self.sink)
            .expect("the batched sink never fails");
        self.sink.runtime.finish()
    }
}

/// StreamApprox pane: distributed OASRS on raw items, then a data-parallel
/// stats job over the sampled strata.
fn streamapprox_pane<R>(
    config: &BatchedConfig,
    query: &Query<R>,
    batch: MicroBatch<R>,
    directive: SizingDirective,
    runtime: &mut ApproxRuntime<'_, R>,
) -> PanePayload
where
    R: Send + Sync + Clone + 'static,
{
    let samplers = runtime.checkout_samplers(directive, batch.items.len());
    let w = samplers.len();
    // Receiver-side sampling: each worker folds its chunk through its own
    // sampler — no synchronization, items never form a dataset.
    let inputs: Vec<_> = samplers
        .into_iter()
        .zip(chunks_of(batch.items, w))
        .collect();
    let results = config.cluster.run(inputs, |_, (mut sampler, mut chunk)| {
        // One batch call per worker chunk: same-stratum runs share a
        // lookup and skipped gaps cost no RNG draws.
        sampler.observe_batch(&mut chunk);
        let sample = sampler.finish_interval();
        (sampler, sample)
    });
    let mut returned = Vec::with_capacity(w);
    let mut union: Option<sa_types::StratifiedSample<R>> = None;
    for (sampler, sample) in results {
        returned.push(sampler);
        match &mut union {
            None => union = Some(sample),
            Some(u) => u.union(sample),
        }
    }
    runtime.checkin_samplers(returned);
    let sample = union.expect("at least one sampling worker");
    // The data-parallel query job over the selected sample.
    let proj = query.projection();
    let stats = config.cluster.run(sample.into_strata(), move |_, stratum| {
        StratumStats::from_sample(&stratum, |r| proj(r))
    });
    PanePayload::Stratified(stats)
}

/// Native pane: full dataset, exact per-stratum statistics per partition
/// (cross-partition strata merge during window combination).
fn native_pane<R>(config: &BatchedConfig, query: &Query<R>, batch: MicroBatch<R>) -> PanePayload
where
    R: Send + Sync + Clone + 'static,
{
    let proj = query.projection();
    let partials = Pds::from_vec(batch.items, config.num_partitions).map_partitions(
        &config.cluster,
        move |_, part: Vec<StreamItem<R>>| {
            let mut acc = ExactAccumulator::new(Arc::clone(&proj));
            acc.observe_slice(&part);
            acc.close_interval()
        },
    );
    PanePayload::Stratified(partials.collect())
}

/// SRS pane: full dataset, distributed ScaSRS, project the sample.
fn srs_pane<R>(
    config: &BatchedConfig,
    query: &Query<R>,
    batch: MicroBatch<R>,
    fraction: f64,
    pane_idx: u64,
) -> PanePayload
where
    R: Send + Sync + Clone + 'static,
{
    let n = batch.items.len();
    let k = ((n as f64 * fraction).ceil() as usize).min(n);
    let proj = query.projection();
    let samples: Vec<(StratumId, f64)> = Pds::from_vec(batch.items, config.num_partitions)
        .sample_exact(
            &config.cluster,
            k,
            config.seed.derive(0x5125).derive(pane_idx).value(),
        )
        .map(&config.cluster, move |item: StreamItem<R>| {
            (item.stratum, proj(&item.value))
        })
        .collect();
    PanePayload::Srs {
        samples,
        population: n as u64,
    }
}

/// STS pane: full dataset, key by stratum, groupBy shuffle, per-stratum
/// random-sort sampling, then the stats job.
fn sts_pane<R>(
    config: &BatchedConfig,
    query: &Query<R>,
    batch: MicroBatch<R>,
    fraction: f64,
    pane_idx: u64,
) -> PanePayload
where
    R: Send + Sync + Clone + 'static,
{
    let keyed = Pds::from_vec(batch.items, config.num_partitions)
        .map(&config.cluster, |item: StreamItem<R>| {
            (item.stratum, item.value)
        });
    let sample = keyed.sample_stratified_exact(
        &config.cluster,
        fraction,
        config.seed.derive(0x575).derive(pane_idx).value(),
    );
    let proj = query.projection();
    let stats = config.cluster.run(sample.into_strata(), move |_, stratum| {
        StratumStats::from_sample(&stratum, |r| proj(r))
    });
    PanePayload::Stratified(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything() {
        let c = chunks_of((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(c.len(), 3);
        let flat: Vec<i32> = c.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        let single = chunks_of(vec![1], 4);
        assert_eq!(single.len(), 4);
        assert_eq!(single.iter().map(Vec::len).sum::<usize>(), 1);
    }
}
