//! The pipelined (Flink-style) runners: StreamApprox and native execution
//! on the `sa-pipelined` engine.
//!
//! Topology: `source → sampling/stats stage (w instances, rebalanced) →
//! window estimator (1 instance) → sink`. The sampling operator implements
//! §4.2.2: it samples "on-the-fly and in an adaptive manner", closing one
//! OASRS interval per *slide interval* (§5.5) and shipping per-stratum
//! statistics — not items — downstream. Vanilla Flink has no sampling
//! operator (§4.1.2), so the only baseline here is native execution, as in
//! the paper.
//!
//! This module is a thin adapter: it expresses only the engine-specific
//! parts (operator pipeline, round-robin exchange, watermark alignment).
//! Panes are cut on the caller's thread by the shared pane driver, as on
//! every other engine: the push source is its sink, dealing each item
//! round-robin to the stage instances and closing each pane with its end
//! as the watermark. The interval state lives in the shared
//! [`crate::runtime::IntervalWorker`] (one per operator instance) and
//! window assembly in the shared [`crate::runtime::WindowFinalizer`].

use crate::combine::PanePayload;
use crate::cost::{frozen_policy, CostPolicy};
use crate::engine::Engine;
use crate::output::{RunOutput, WindowResult};
use crate::query::Query;
use crate::runtime::{
    sampler_sizing, window_tile_ms, IntervalWorker, PaneDriver, PaneSink, WindowFinalizer,
};
use crate::session::StreamApprox;
use sa_estimate::StratumStats;
use sa_pipelined::{Flow, FlowHandle, Operator, PushSource};
use sa_types::{EventTime, RunSeed, SaError, StratumId, StreamItem, Window};
use std::time::Instant;

/// Which pipelined system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelinedSystem {
    /// Flink-based StreamApprox: an OASRS sampling operator in the
    /// pipeline.
    StreamApprox,
    /// Native Flink execution without sampling.
    Native,
}

impl std::fmt::Display for PipelinedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelinedSystem::StreamApprox => write!(f, "Flink-based StreamApprox"),
            PipelinedSystem::Native => write!(f, "Native Flink"),
        }
    }
}

/// Configuration of the pipelined engine for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelinedConfig {
    /// Which system to run: Flink-based StreamApprox (the default) or
    /// native Flink execution without sampling.
    pub system: PipelinedSystem,
    /// Parallel instances of the sampling/stats stage.
    pub sample_workers: usize,
    /// Seed for sampling decisions.
    pub seed: RunSeed,
    /// Expected items in the first pane — the fraction policy's
    /// first-interval capacity hint (from the second pane on, OASRS adapts
    /// capacities from real arrival counters). [`run_pipelined`] derives
    /// this from the recorded stream; live sessions supply an estimate, or
    /// leave the default `0` to start from the sampler's minimum capacity.
    pub expected_pane_items: usize,
}

impl PipelinedConfig {
    /// A default sized for small machines: 2 sampling workers.
    pub fn new() -> Self {
        PipelinedConfig {
            system: PipelinedSystem::StreamApprox,
            sample_workers: 2,
            seed: RunSeed::DEFAULT,
            expected_pane_items: 0,
        }
    }

    /// Picks the system to run (StreamApprox or the native baseline).
    #[must_use]
    pub fn with_system(mut self, system: PipelinedSystem) -> Self {
        self.system = system;
        self
    }

    /// Sets the number of sampling workers.
    #[must_use]
    pub fn with_sample_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one sampling worker");
        self.sample_workers = workers;
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

impl Default for PipelinedConfig {
    fn default() -> Self {
        PipelinedConfig::new()
    }
}

/// Output of the sampling/stats stage.
#[derive(Debug, Clone)]
enum StageOut {
    /// One pane's per-stratum statistics from one worker.
    Pane {
        pane: Window,
        stats: Vec<StratumStats>,
    },
    /// End-of-stream counters from one worker.
    Done { ingested: u64, sampled: u64 },
}

/// Output of the window-estimation stage.
#[derive(Debug, Clone)]
enum RunnerOut {
    Window(Box<WindowResult>),
    Done { ingested: u64, sampled: u64 },
}

/// The pane-sampling / pane-stats operator (one instance per worker): an
/// [`IntervalWorker`] fed the items dealt to this instance. Each watermark
/// is a pane end from the driver and closes that pane, quiet or not,
/// *before* the runtime forwards it downstream, so pane results always
/// precede the watermark that completes their windows.
struct PaneStage<R> {
    worker: IntervalWorker<R>,
    pane_ms: i64,
}

impl<R: Send + 'static> Operator<R, StageOut> for PaneStage<R> {
    fn on_item(&mut self, item: StreamItem<R>, _out: &mut dyn FnMut(StreamItem<StageOut>)) {
        self.worker.observe(item.stratum, item.value);
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut dyn FnMut(StreamItem<StageOut>)) {
        // The end-of-stream watermark closes nothing: the driver closed the
        // last pane before the source was dropped.
        if wm == EventTime::MAX {
            return;
        }
        let pane = Window::new(wm - self.pane_ms, wm);
        let stats = self.worker.close_interval();
        out(StreamItem::new(
            StratumId(0),
            wm,
            StageOut::Pane { pane, stats },
        ));
    }

    fn on_end(&mut self, out: &mut dyn FnMut(StreamItem<StageOut>)) {
        let (ingested, sampled) = self.worker.counters();
        out(StreamItem::new(
            StratumId(0),
            EventTime::MAX,
            StageOut::Done { ingested, sampled },
        ));
    }
}

/// The window-estimation operator: a [`WindowFinalizer`] assembling panes
/// into sliding windows, emitting `output ± error bound` results as the
/// watermark closes them.
struct WindowEstimator {
    finalizer: WindowFinalizer,
    ingested: u64,
    sampled: u64,
}

impl WindowEstimator {
    fn emit_windows(&mut self, out: &mut dyn FnMut(StreamItem<RunnerOut>)) {
        for result in self.finalizer.drain_windows() {
            out(StreamItem::new(
                StratumId(0),
                result.window.end,
                RunnerOut::Window(Box::new(result)),
            ));
        }
    }
}

impl Operator<StageOut, RunnerOut> for WindowEstimator {
    fn on_item(&mut self, item: StreamItem<StageOut>, _out: &mut dyn FnMut(StreamItem<RunnerOut>)) {
        match item.value {
            StageOut::Pane { pane, stats } => {
                self.finalizer
                    .ingest_interval(pane, PanePayload::Stratified(stats));
            }
            StageOut::Done { ingested, sampled } => {
                self.ingested += ingested;
                self.sampled += sampled;
            }
        }
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut dyn FnMut(StreamItem<RunnerOut>)) {
        if wm == EventTime::MAX {
            self.finalizer.finish();
        } else {
            self.finalizer.close_interval(wm);
        }
        self.emit_windows(out);
    }

    fn on_end(&mut self, out: &mut dyn FnMut(StreamItem<RunnerOut>)) {
        self.finalizer.finish();
        self.emit_windows(out);
        out(StreamItem::new(
            StratumId(0),
            EventTime::MAX,
            RunnerOut::Done {
                ingested: self.ingested,
                sampled: self.sampled,
            },
        ));
    }
}

/// Runs one pipelined system over a recorded stream.
///
/// The cost policy is consulted once at startup for its sizing directive,
/// so it must be static ([`CostPolicy::is_static`]); within the run,
/// OASRS's own per-interval adaptation (capacity follows `fraction ×
/// previous arrivals`) provides the adaptivity of §4.2.2.
///
/// This is the one-shot convenience over an incremental
/// [`crate::ApproxSession`]: it derives the first-pane volume hint from
/// the recording, builds a pipelined session, pushes everything, and
/// finishes. A session configured with the same
/// [`PipelinedConfig::expected_pane_items`] and fed the same items —
/// item by item or chunked — produces bit-for-bit the same windows.
///
/// # Panics
///
/// Panics if `items` is not in non-decreasing event-time order, or if a
/// sampling system runs under a policy that is not static.
#[must_use = "the run's windows and metrics are its only product"]
pub fn run_pipelined<R>(
    config: &PipelinedConfig,
    system: PipelinedSystem,
    query: &Query<R>,
    policy: &mut dyn CostPolicy,
    items: Vec<StreamItem<R>>,
) -> RunOutput
where
    R: Send + Sync + 'static,
{
    // Estimate pane volume for the fraction policy's first interval.
    let pane_ms = window_tile_ms(query.window());
    let first_pane_guess = items
        .iter()
        .take_while(|i| i.time.as_millis() < pane_ms)
        .count();
    let mut session = StreamApprox::new(query.clone(), policy)
        .pipelined(
            config
                .with_expected_pane_items(first_pane_guess)
                .with_system(system),
        )
        .start();
    session
        .push_batch(items)
        .expect("a recorded stream is event-time ordered and its policy static");
    session.finish()
}

/// The pipelined substrate as an incremental [`Engine`]: the operator
/// topology runs on its own threads from the moment the engine is built,
/// fed live on the caller's thread by the [`PaneDriver`] through the push
/// source. Windows surface a beat after the items that completed them (the
/// stages are concurrent); `finish` closes the last pane, ends the stream,
/// drains the sink, and joins the topology.
pub(crate) struct PipelinedEngine<R: Send + 'static> {
    driver: PaneDriver,
    source: PushSource<R>,
    results: FlowHandle<RunnerOut>,
    /// Set when the policy is not static: the engine consults it once, so
    /// every push is refused rather than run under a frozen directive.
    refused: Option<SaError>,
    started: Instant,
    ingested: u64,
    aggregated: u64,
}

/// The push source is the pipelined engine's [`PaneSink`]: items are dealt
/// round-robin to the stage instances, starting at instance 0, and a pane
/// closes with its end broadcast as the watermark.
impl<R> PaneSink<R> for PushSource<R> {
    #[inline]
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.push(item)
    }

    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        items.drain(..).try_for_each(|item| self.push(item))
    }

    fn close_pane(&mut self, pane: Window) -> Result<(), SaError> {
        self.watermark(pane.end)
    }
}

impl<R> PipelinedEngine<R>
where
    R: Send + Sync + 'static,
{
    pub(crate) fn new(
        config: &PipelinedConfig,
        system: PipelinedSystem,
        query: &Query<R>,
        policy: &mut dyn CostPolicy,
    ) -> Self {
        let started = Instant::now();
        let pane_ms = window_tile_ms(query.window());
        let w = config.sample_workers.max(1);
        let proj = query.projection();
        let seed = config.seed;
        let confidence = query.confidence();
        let window_spec = query.window();
        let consults = !matches!(system, PipelinedSystem::Native);
        let refused = (consults && !policy.is_static()).then(|| frozen_policy("pipelined"));
        let sizing = if consults {
            sampler_sizing(policy.interval_sizing(), config.expected_pane_items, w)
        } else {
            None
        };

        let (source, flow) = Flow::source_push();
        let results = flow
            .then(w, move |i| PaneStage {
                worker: IntervalWorker::for_worker(
                    sizing,
                    seed,
                    i,
                    w,
                    std::sync::Arc::clone(&proj),
                ),
                pane_ms,
            })
            .then(1, move |_| WindowEstimator {
                finalizer: WindowFinalizer::new(window_spec, confidence),
                ingested: 0,
                sampled: 0,
            })
            .into_handle();
        PipelinedEngine {
            driver: PaneDriver::new(Some(pane_ms), window_spec),
            source,
            results,
            refused,
            started,
            ingested: 0,
            aggregated: 0,
        }
    }

    /// Splits a drained sink batch into windows and end-of-stream
    /// counters.
    fn absorb(
        emitted: Vec<StreamItem<RunnerOut>>,
        ingested: &mut u64,
        aggregated: &mut u64,
    ) -> Vec<WindowResult> {
        let mut windows = Vec::new();
        for item in emitted {
            match item.value {
                RunnerOut::Window(result) => windows.push(*result),
                RunnerOut::Done {
                    ingested: i,
                    sampled: s,
                } => {
                    *ingested += i;
                    *aggregated += s;
                }
            }
        }
        windows
    }
}

impl<R> Engine<R> for PipelinedEngine<R>
where
    R: Send + Sync + 'static,
{
    fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        if let Some(err) = &self.refused {
            return Err(err.clone());
        }
        self.driver.push(item, &mut self.source)
    }

    fn push_chunk(&mut self, items: Vec<StreamItem<R>>) -> Result<(), SaError> {
        if let Some(err) = &self.refused {
            return Err(err.clone());
        }
        self.driver.push_chunk(items, &mut self.source)
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        let emitted = self.results.try_drain();
        Self::absorb(emitted, &mut self.ingested, &mut self.aggregated)
    }

    fn finish(self: Box<Self>) -> RunOutput {
        let PipelinedEngine {
            mut driver,
            mut source,
            results,
            started,
            mut ingested,
            mut aggregated,
            ..
        } = *self;
        // A dead dataflow has no window left to close; what it emitted is
        // still drained below.
        let _ = driver.finish(&mut source);
        drop(source); // end-of-stream: final MAX watermark flushes every window
        let emitted = results.drain_to_end();
        let mut windows = Self::absorb(emitted, &mut ingested, &mut aggregated);
        windows.sort_by_key(|w| (w.window.end, w.window.start));
        RunOutput {
            windows,
            items_ingested: ingested,
            items_aggregated: aggregated,
            elapsed: started.elapsed(),
        }
    }
}
