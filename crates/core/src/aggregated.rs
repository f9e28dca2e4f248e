//! The aggregator consumer path: StreamApprox as a plain in-process loop.
//!
//! The paper's deployment (§2.1, §4.1) puts a stream aggregator (Apache
//! Kafka) in front of the stream engine; the smallest real deployment is a
//! consumer polling that aggregator and sampling inline — no dataset
//! formation, no operator threads, just OASRS between the consumer loop
//! and the window estimator. [`AggregatedEngine`] is that path as an
//! [`Engine`](crate::Engine): it embeds the shared
//! [`ApproxRuntime`](crate::ApproxRuntime) directly (sampler pool,
//! cost-policy feedback, window assembly) and the shared pane driver, and
//! adds only the inline sampler the driver feeds, making it the cheapest
//! substrate for live
//! [`crate::ApproxSession`]s fed from `sa_aggregator::Consumer` —
//! see [`crate::ApproxSession::ingest_consumer`].
//!
//! Unlike the batched engine it holds no per-pane item buffer: every
//! pushed item meets the sampler immediately and is dropped or retained
//! on the spot, so memory stays bounded by reservoir capacity even for
//! unbounded streams.

use crate::checkpoint::{require_codec, require_engine, RecordCodec};
use crate::combine::PanePayload;
use crate::cost::{PolicyHandle, SizingDirective};
use crate::engine::Engine;
use crate::output::{RunOutput, WindowResult};
use crate::query::Query;
use crate::runtime::{sampler_pane_stats, ApproxRuntime, ExactAccumulator, PaneDriver, PaneSink};
use sa_sampling::OasrsSampler;
use sa_types::wire::put_varint;
use sa_types::{
    EngineSnapshot, RunSeed, SaError, StreamItem, Window, WireDecode, WireEncode, WireReader,
};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the aggregated (consumer-path) engine for one
/// session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedConfig {
    /// Seed for every sampling decision.
    pub seed: RunSeed,
    /// Sampling-interval length in event-time milliseconds; `None` uses
    /// the longest interval that tiles the window — the greatest common
    /// divisor of its size and slide, which is the slide, the paper's
    /// interval choice (§5.5), whenever the slide divides the size. An
    /// explicit interval must divide that one: panes that straddle a
    /// window bound would be counted whole on one side of it, so the
    /// first push refuses the session with `SaError::InvalidConfig`.
    pub pane_interval_ms: Option<i64>,
}

impl AggregatedConfig {
    /// The default configuration: default seed, slide-sized panes.
    pub fn new() -> Self {
        AggregatedConfig {
            seed: RunSeed::DEFAULT,
            pane_interval_ms: None,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: impl Into<RunSeed>) -> Self {
        self.seed = seed.into();
        self
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
}

impl Default for AggregatedConfig {
    fn default() -> Self {
        AggregatedConfig::new()
    }
}

/// The in-flight state of the current pane.
enum PaneState<R> {
    /// No pane open (before the first item, and transiently at close).
    Idle,
    /// Sampling under a budget with a sampler borrowed from the runtime's
    /// pool.
    Sampling(OasrsSampler<R>),
    /// Exact accumulation (native execution / `Everything` directive).
    Exact(ExactAccumulator<R>),
}

/// The consumer-path substrate: single-threaded, inline, per-push
/// sampling over the shared [`ApproxRuntime`]. The [`PaneDriver`] cuts the
/// panes; the sink is everything specific to this engine.
pub(crate) struct AggregatedEngine<'p, R> {
    driver: PaneDriver,
    sink: AggregatedSink<'p, R>,
    codec: Option<RecordCodec<R>>,
}

/// The aggregated engine's [`PaneSink`]: every item meets a pooled sampler
/// (or an exact accumulator) the moment it arrives.
struct AggregatedSink<'p, R> {
    runtime: ApproxRuntime<'p, R>,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    state: PaneState<R>,
    pane_arrived: u64,
    prev_pane_arrived: usize,
}

impl<'p, R> AggregatedEngine<'p, R> {
    pub(crate) fn new(
        config: AggregatedConfig,
        query: Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        codec: Option<RecordCodec<R>>,
    ) -> Self {
        AggregatedEngine {
            driver: PaneDriver::new(config.pane_interval_ms, query.window()),
            sink: AggregatedSink {
                runtime: ApproxRuntime::new(&query, policy, config.seed, 1),
                proj: query.projection(),
                state: PaneState::Idle,
                pane_arrived: 0,
                prev_pane_arrived: 0,
            },
            codec,
        }
    }
}

impl<R> AggregatedSink<'_, R> {
    /// Arms the pane the driver just opened, unless it already is:
    /// consults the cost policy and checks out either a pooled sampler
    /// (capacity adaptation carries across panes) or an exact accumulator.
    fn open_pane(&mut self) {
        if !matches!(self.state, PaneState::Idle) {
            return;
        }
        self.state = match self.runtime.interval_sizing() {
            SizingDirective::Everything => {
                PaneState::Exact(ExactAccumulator::new(Arc::clone(&self.proj)))
            }
            directive => PaneState::Sampling(
                self.runtime
                    .checkout_samplers(directive, self.prev_pane_arrived)
                    .pop()
                    .expect("single-worker pool"),
            ),
        };
        self.pane_arrived = 0;
    }
}

impl<R> PaneSink<R> for AggregatedSink<'_, R> {
    #[inline]
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.open_pane();
        match &mut self.state {
            PaneState::Sampling(sampler) => sampler.observe(item.stratum, item.value),
            PaneState::Exact(acc) => acc.observe(item.stratum, &item.value),
            PaneState::Idle => unreachable!("a pane is open whenever an item is observed"),
        }
        self.pane_arrived += 1;
        Ok(())
    }

    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        self.open_pane();
        self.pane_arrived += items.len() as u64;
        match &mut self.state {
            PaneState::Sampling(sampler) => sampler.observe_batch(items),
            PaneState::Exact(acc) => acc.observe_slice(items),
            PaneState::Idle => unreachable!("a pane is open whenever items are observed"),
        }
        Ok(())
    }

    /// Closes the pane into per-stratum statistics, feeds the policy, and
    /// advances the watermark to the pane end. A quiet interval is armed
    /// first, so it consults the policy like any other pane.
    fn close_pane(&mut self, pane: Window) -> Result<(), SaError> {
        self.open_pane();
        // Only the interval-close work is clocked: per-item observes stay
        // clock-free so push costs no syscalls, at the price of
        // process_nanos under-reporting the (tiny, O(1)-per-item) observe
        // cost on this engine.
        let closing = Instant::now();
        let stats = match std::mem::replace(&mut self.state, PaneState::Idle) {
            PaneState::Sampling(mut sampler) => {
                let stats = sampler_pane_stats(&mut sampler, &*self.proj);
                self.runtime.checkin_samplers(vec![sampler]);
                stats
            }
            PaneState::Exact(mut acc) => acc.close_interval(),
            PaneState::Idle => Vec::new(),
        };
        let nanos = closing.elapsed().as_nanos() as u64;
        self.runtime.ingest_interval(
            pane,
            PanePayload::Stratified(stats),
            self.pane_arrived,
            nanos,
        );
        self.runtime.close_interval(pane.end);
        self.prev_pane_arrived = self.pane_arrived as usize;
        Ok(())
    }
}

impl<R> Engine<R> for AggregatedEngine<'_, R> {
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
        self.driver.start().encode(&mut state);
        put_varint(&mut state, sink.pane_arrived);
        put_varint(&mut state, sink.prev_pane_arrived as u64);
        match &sink.state {
            PaneState::Idle => 0u8.encode(&mut state),
            PaneState::Sampling(sampler) => {
                1u8.encode(&mut state);
                sampler.encode_state_with(&mut state, &mut |v, out| (codec.encode)(v, out));
            }
            PaneState::Exact(acc) => {
                2u8.encode(&mut state);
                acc.encode_state(&mut state);
            }
        }
        sink.runtime.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "aggregated".into(),
            pane: self.driver.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = require_codec(self.codec)?;
        require_engine(snapshot, "aggregated")?;
        let sink = &mut self.sink;
        let mut r = WireReader::new(&snapshot.state);
        self.driver.restore_start(Option::decode(&mut r)?)?;
        sink.pane_arrived = r.read_varint()?;
        sink.prev_pane_arrived = usize::decode(&mut r)?;
        sink.state = match u8::decode(&mut r)? {
            0 => PaneState::Idle,
            // A mid-pane sampler was checked out of the runtime pool when
            // the snapshot was taken, so the pool state restored below has
            // it missing — close_pane checks it back in, as in the
            // original run.
            1 => PaneState::Sampling(OasrsSampler::decode_state_with(&mut r, &mut |r| {
                (codec.decode)(r)
            })?),
            2 => PaneState::Exact(ExactAccumulator::decode_state(
                &mut r,
                Arc::clone(&sink.proj),
            )?),
            tag => {
                return Err(SaError::Wire(format!("unknown pane-state tag {tag}")));
            }
        };
        sink.runtime.restore_state(&mut r, codec)?;
        r.finish()
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        self.driver
            .finish(&mut self.sink)
            .expect("the aggregated sink never fails");
        self.sink.runtime.finish()
    }
}
