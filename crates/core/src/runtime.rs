//! The engine-agnostic approximation runtime.
//!
//! The paper's central claim (§4) is that one sampling algorithm — OASRS —
//! plugs into *any* stream-processing substrate. This module is that claim
//! made structural: everything an engine does *between* receiving items
//! and emitting `output ± error bound` windows lives here, shared by the
//! batched (Spark-style) and pipelined (Flink-style) engines, and by any
//! engine added later (the roadmap's aggregator-backed runner, sharded
//! engines).
//!
//! The pieces, from the inside out:
//!
//! * [`sampler_sizing`] — the one mapping from a cost policy's
//!   [`SizingDirective`] to the sampler's [`SizingPolicy`].
//! * [`ExactAccumulator`] — native execution's per-stratum Welford
//!   accumulation.
//! * [`IntervalWorker`] — one parallel worker's interval state: an OASRS
//!   sampler or an exact accumulator, closed into per-stratum statistics
//!   at every interval boundary. Threaded engines embed one per worker.
//! * `PaneDriver` / `PaneSink` — *the* pane path. The driver cuts a
//!   time-ordered stream into event-time panes (grid alignment, empty
//!   panes for quiet intervals, bounded gap jumps, refusal of
//!   unrepresentable times, the chunk split at a pane end) and drives a
//!   three-method sink: one item, a run of items, close the pane. Every
//!   push-driven engine embeds one driver and supplies only its sink —
//!   pooled sampler (aggregated), pane buffer (batched), route-and-flush
//!   (sharded), digest-and-send (distributed worker), deal-and-watermark
//!   (pipelined push source) — so there is one pane-cutting loop in the
//!   system, not one per engine.
//! * `PaneBarrier` — *the* pane barrier of the data-parallel tiers: one
//!   part per shard per pane, offered, excused or missing, merged in
//!   shard order with the pane-start-seeded RNG. The sharded engine and
//!   the distributed coordinator both embed it; it reads no clock.
//! * [`WindowFinalizer`] — pane-to-window assembly and estimation:
//!   [`PaneWindower`] state plus the `combine.rs` block-aligned sliding
//!   merge of the panes it lends each completed window. Engines with a
//!   dedicated window stage embed one there.
//! * [`ApproxRuntime`] — the full per-interval loop for engines driven
//!   from a single control thread: cost-policy consultation and feedback,
//!   sampler-pool lifecycle, interval ingestion, window finalization and
//!   run metrics, behind the `ingest_interval` / `close_interval` /
//!   `take_windows` / `finish` API.
//!
//! What remains in the engine adapters is only what is genuinely
//! engine-specific: micro-batch dataset formation and cluster shuffles in
//! `batched`, the ring fabric in `sharded`, the wire in `net`, operator
//! pipelines and exchanges in `pipelined`.

use crate::checkpoint::RecordCodec;
use crate::combine::{PanePayload, SlidingMerge};
use crate::cost::{CostPolicy, IntervalFeedback, PolicyHandle, SizingDirective};
use crate::output::{RunOutput, WindowResult};
use crate::query::Query;
use crate::windowing::PaneWindower;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_estimate::{estimate_mean, widen_for_shortfall, StratumStats, Welford};
use sa_sampling::{merge_all_stratified, OasrsSampler, SizingPolicy};
use sa_types::{
    wire::put_varint, Confidence, EventTime, RunSeed, SaError, StratifiedSample, StratumId,
    StreamItem, Window, WindowSpec, WireDecode, WireEncode, WireReader,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Maps a cost policy's per-interval directive onto the sampler's sizing
/// policy; `None` means exact (native) execution.
///
/// `expected_items` seeds the fraction policy's first-interval capacity
/// guess — spread over `workers` and an assumed handful of strata; from
/// the second interval on, OASRS adapts capacities from real per-stratum
/// counters.
pub fn sampler_sizing(
    directive: SizingDirective,
    expected_items: usize,
    workers: usize,
) -> Option<SizingPolicy> {
    match directive {
        SizingDirective::Everything => None,
        SizingDirective::Fraction(fraction) => Some(SizingPolicy::FractionOfPrevious {
            fraction,
            initial: ((fraction * expected_items as f64) as usize / workers.max(1) / 4).max(16),
        }),
        SizingDirective::PerStratum(n) => Some(SizingPolicy::PerStratum(n)),
        SizingDirective::SharedTotal(n) => Some(SizingPolicy::SharedTotal(n)),
    }
}

/// The seed of the RNG that drives one pane's cross-shard merge, derived
/// from the run seed and the pane's *start time* (not a sequential pane
/// counter): workers that jump different quiet gaps disagree on pane
/// ordinals but always agree on pane start times. The engines' one pane
/// barrier seeds every merge with it, on the sharded engine and the
/// distributed coordinator alike, so the two tiers draw the same merge for
/// the same pane — and a resumed run needs no pane counter to draw it.
pub fn pane_merge_seed(seed: RunSeed, pane_start_ms: i64) -> u64 {
    seed.derive(0xD157).derive(pane_start_ms as u64).value()
}

/// Exact per-stratum accumulation for native execution: every record is
/// projected and folded into its stratum's [`Welford`] accumulator.
pub struct ExactAccumulator<R> {
    accs: BTreeMap<StratumId, Welford>,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
}

impl<R> ExactAccumulator<R> {
    /// An empty accumulator projecting records through `proj`.
    pub fn new(proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>) -> Self {
        ExactAccumulator {
            accs: BTreeMap::new(),
            proj,
        }
    }

    /// Folds one record into its stratum.
    #[inline]
    pub fn observe(&mut self, stratum: StratumId, value: &R) {
        let v = (self.proj)(value);
        self.accs.entry(stratum).or_default().push(v);
    }

    /// Folds a slice of items, hoisting the per-item stratum map lookup
    /// out of the loop: consecutive same-stratum items share one
    /// `BTreeMap` entry lookup. Welford accumulation is order-dependent
    /// only in float rounding, and the item order is unchanged, so this
    /// is bit-for-bit the per-item fold.
    pub fn observe_slice(&mut self, items: &[StreamItem<R>]) {
        let mut i = 0;
        while i < items.len() {
            let stratum = items[i].stratum;
            let run = items[i..]
                .iter()
                .take_while(|it| it.stratum == stratum)
                .count();
            let acc = self.accs.entry(stratum).or_default();
            for item in &items[i..i + run] {
                acc.push((self.proj)(&item.value));
            }
            i += run;
        }
    }

    /// Closes the interval: per-stratum exact statistics, state re-armed.
    pub fn close_interval(&mut self) -> Vec<StratumStats> {
        std::mem::take(&mut self.accs)
            .into_iter()
            .map(|(stratum, acc)| StratumStats::from_parts(stratum, acc.count(), acc))
            .collect()
    }

    /// Serializes the open interval's accumulators for an engine snapshot.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_varint(out, self.accs.len() as u64);
        for (stratum, acc) in &self.accs {
            stratum.encode(out);
            acc.encode(out);
        }
    }

    /// Rebuilds an accumulator from snapshot state, projecting through
    /// `proj` (not part of the state: the restored engine supplies the
    /// same query's projection).
    pub(crate) fn decode_state(
        r: &mut WireReader<'_>,
        proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    ) -> Result<Self, SaError> {
        let n = r.read_len()?;
        let mut accs = BTreeMap::new();
        for _ in 0..n {
            let stratum = StratumId::decode(r)?;
            let acc = Welford::decode(r)?;
            if accs.insert(stratum, acc).is_some() {
                return Err(SaError::Wire(format!(
                    "duplicate stratum {} in accumulator state",
                    stratum.0
                )));
            }
        }
        Ok(ExactAccumulator { accs, proj })
    }
}

/// Closes a sampler's interval into per-stratum statistics, folding each
/// stratum's lent sample in place (see
/// [`OasrsSampler::finish_interval_with`]): no `StratifiedSample` is built
/// and no item buffer is freed. The pane close of every stats-producing
/// sampling path — the aggregated engine's and
/// [`IntervalWorker::close_interval`] — is this one function.
pub(crate) fn sampler_pane_stats<R>(
    sampler: &mut OasrsSampler<R>,
    proj: &dyn Fn(&R) -> f64,
) -> Vec<StratumStats> {
    let mut stats = Vec::with_capacity(sampler.num_strata());
    sampler.finish_interval_with(|stratum, items, seen, _capacity| {
        let mut acc = Welford::new();
        for item in items {
            acc.push(proj(item));
        }
        stats.push(StratumStats::from_parts(stratum, seen, acc));
    });
    stats
}

enum WorkerKind<R> {
    Sampling(OasrsSampler<R>),
    Exact(ExactAccumulator<R>),
}

/// What one worker's interval closed into, before any cross-worker
/// combination.
///
/// Sampling workers keep the *items* (a weighted [`StratifiedSample`]) so
/// that a fixed-size budget's shard samples can be merged by the
/// seen-count-weighted reservoir union before estimation; exact workers
/// reduce to per-stratum [`StratumStats`] immediately (Welford statistics
/// merge exactly, no items needed). Where the merge takes statistics
/// (`merges_stats`), a sampled part may be reduced to them where it was
/// drawn as well.
pub enum WorkerPane<R> {
    /// The interval's weighted stratified sample (sampling execution).
    Sampled(StratifiedSample<R>),
    /// The interval's per-stratum statistics: exact under native
    /// execution, of the shard's own sample under a fraction budget.
    Stats(Vec<StratumStats>),
}

impl<R> WorkerPane<R> {
    /// Items the pane accounts for, across all its strata.
    fn population(&self) -> u64 {
        match self {
            WorkerPane::Sampled(sample) => sample.iter().map(|s| s.population).sum(),
            WorkerPane::Stats(stats) => stats.iter().map(|s| s.population).sum(),
        }
    }
}

/// Whether the pane merge under `directive` takes per-stratum statistics
/// rather than samples: true unless the budget is a fixed size.
///
/// A fixed budget (`PerStratum`, `SharedTotal`) arms every shard with the
/// whole budget, so the merge must draw a seeded weighted union of the
/// shards' samples back down to it. Under a fraction each shard's sampler
/// already holds only its own arrival share of the budget, and exact
/// shards hold everything, so the merge never draws: each part reduces to
/// [`StratumStats`] where it was drawn, and the merge concatenates them
/// in shard order. The distributed worker, the coordinator and
/// [`ShardSet::merge_panes`] all decide by this one rule.
pub(crate) fn merges_stats(directive: SizingDirective) -> bool {
    !matches!(
        directive,
        SizingDirective::PerStratum(_) | SizingDirective::SharedTotal(_)
    )
}

/// One parallel worker's interval state: OASRS sampling under a budget,
/// exact accumulation without one. Engines call
/// [`observe`](IntervalWorker::observe) per item and
/// [`close_interval`](IntervalWorker::close_interval) at every pane
/// boundary; the worker keeps the ingested/sampled counters every run
/// reports.
pub struct IntervalWorker<R> {
    kind: WorkerKind<R>,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    ingested: u64,
    sampled: u64,
}

impl<R> IntervalWorker<R> {
    /// Builds worker `worker` of `num_workers`: sampling when `sizing` is
    /// set (capacities sharded, seed derived via [`RunSeed::for_worker`]),
    /// exact otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= num_workers` or the sizing policy is invalid.
    pub fn for_worker(
        sizing: Option<SizingPolicy>,
        seed: RunSeed,
        worker: usize,
        num_workers: usize,
        proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    ) -> Self {
        let kind = match sizing {
            Some(sizing) => WorkerKind::Sampling(OasrsSampler::for_worker(
                sizing,
                seed.value(),
                worker,
                num_workers,
            )),
            None => WorkerKind::Exact(ExactAccumulator::new(Arc::clone(&proj))),
        };
        IntervalWorker {
            kind,
            proj,
            ingested: 0,
            sampled: 0,
        }
    }

    /// Builds shard `shard`'s worker for a mergeable-sampler engine: the
    /// sampler keeps the *full* per-stratum capacity — unlike
    /// [`for_worker`](IntervalWorker::for_worker), which splits capacities
    /// `N/w` — because under a fixed-size budget shard-local samples are
    /// merged back down to capacity by the weighted reservoir union at
    /// interval close (see [`ShardSet::merge_panes`]), and under a
    /// fraction each shard's capacities follow its own arrivals anyway.
    /// Only the RNG stream is decorrelated per shard, through the same
    /// [`RunSeed::for_worker`] rule, so shard 0 of a 1-shard set draws
    /// bit-for-bit the sample worker 0 of a 1-worker pool would.
    ///
    /// # Panics
    ///
    /// Panics if the sizing policy is invalid.
    pub fn for_shard(
        sizing: Option<SizingPolicy>,
        seed: RunSeed,
        shard: usize,
        proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    ) -> Self {
        let kind = match sizing {
            Some(sizing) => {
                WorkerKind::Sampling(OasrsSampler::new(sizing, seed.for_worker(shard).value()))
            }
            None => WorkerKind::Exact(ExactAccumulator::new(Arc::clone(&proj))),
        };
        IntervalWorker {
            kind,
            proj,
            ingested: 0,
            sampled: 0,
        }
    }

    /// Offers one item.
    #[inline]
    pub fn observe(&mut self, stratum: StratumId, value: R) {
        self.ingested += 1;
        match &mut self.kind {
            WorkerKind::Sampling(sampler) => sampler.observe(stratum, value),
            WorkerKind::Exact(acc) => acc.observe(stratum, &value),
        }
    }

    /// Offers a whole chunk through the batch fast path: sampling workers
    /// feed same-stratum runs to the skip-ahead reservoirs
    /// ([`OasrsSampler::observe_batch`]), exact workers run the
    /// lookup-hoisted slice fold. Bit-for-bit identical to per-item
    /// [`observe`](IntervalWorker::observe) over the same items.
    ///
    /// The chunk is drained: it comes back empty with its allocation
    /// intact, so data-parallel callers can recycle the buffer instead of
    /// allocating per chunk.
    pub fn observe_chunk(&mut self, items: &mut Vec<StreamItem<R>>) {
        self.ingested += items.len() as u64;
        match &mut self.kind {
            WorkerKind::Sampling(sampler) => sampler.observe_batch(items),
            WorkerKind::Exact(acc) => {
                acc.observe_slice(items);
                items.clear();
            }
        }
    }

    /// Closes the current interval into per-stratum statistics and re-arms
    /// for the next one.
    pub fn close_interval(&mut self) -> Vec<StratumStats> {
        let stats = match &mut self.kind {
            WorkerKind::Sampling(sampler) => sampler_pane_stats(sampler, &*self.proj),
            WorkerKind::Exact(acc) => acc.close_interval(),
        };
        self.sampled += stats.iter().map(StratumStats::sample_size).sum::<u64>();
        stats
    }

    /// Closes the current interval into a [`WorkerPane`] and re-arms for
    /// the next one — the pre-combination form the sharded engine ships
    /// between threads: a sampling worker hands over its *sample* under
    /// every budget, and [`ShardSet::merge_panes`] reduces it to
    /// statistics where the merge takes them (see `merges_stats`).
    pub fn close_interval_parts(&mut self) -> WorkerPane<R> {
        match &mut self.kind {
            WorkerKind::Sampling(sampler) => {
                let sample = sampler.finish_interval();
                self.sampled += sample.total_sampled();
                WorkerPane::Sampled(sample)
            }
            WorkerKind::Exact(_) => WorkerPane::Stats(self.close_interval()),
        }
    }

    /// Items offered / items aggregated over this worker's lifetime.
    pub fn counters(&self) -> (u64, u64) {
        (self.ingested, self.sampled)
    }

    /// Takes over a retiring predecessor's lifetime counters, so a shard's
    /// totals span the rearms a directive change forces.
    pub(crate) fn inherit_counters(&mut self, predecessor: &IntervalWorker<R>) {
        self.ingested += predecessor.ingested;
        self.sampled += predecessor.sampled;
    }

    /// Serializes the worker's full mid-interval state — sampler or
    /// accumulator plus lifetime counters — for an engine snapshot.
    /// Records inside reservoirs go through `codec`.
    pub(crate) fn encode_state(&self, codec: RecordCodec<R>, out: &mut Vec<u8>) {
        match &self.kind {
            WorkerKind::Sampling(sampler) => {
                0u8.encode(out);
                sampler.encode_state_with(out, &mut |v, out| (codec.encode)(v, out));
            }
            WorkerKind::Exact(acc) => {
                1u8.encode(out);
                acc.encode_state(out);
            }
        }
        put_varint(out, self.ingested);
        put_varint(out, self.sampled);
    }

    /// Rebuilds a worker from snapshot state. The projection is supplied
    /// by the restored engine (same query), not the snapshot.
    pub(crate) fn decode_state(
        r: &mut WireReader<'_>,
        codec: RecordCodec<R>,
        proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    ) -> Result<Self, SaError> {
        let kind = match u8::decode(r)? {
            0 => WorkerKind::Sampling(OasrsSampler::decode_state_with(r, &mut |r| {
                (codec.decode)(r)
            })?),
            1 => WorkerKind::Exact(ExactAccumulator::decode_state(r, Arc::clone(&proj))?),
            tag => {
                return Err(SaError::Wire(format!("unknown worker-kind tag {tag}")));
            }
        };
        Ok(IntervalWorker {
            kind,
            proj,
            ingested: r.read_varint()?,
            sampled: r.read_varint()?,
        })
    }
}

/// The shard-aware sampler lifecycle for data-parallel engines: routing,
/// per-shard [`IntervalWorker`] construction (rebuilt only when the cost
/// policy's directive changes, so capacity adaptation keeps its history —
/// the shard-level mirror of [`ApproxRuntime::checkout_samplers`]), and
/// the deterministic canonical merge of shard-local interval closes.
///
/// Merge semantics follow the sizing policy's budget distribution (the
/// rule is `merges_stats`):
///
/// * Under a **fraction** directive, every shard's sampler adapts its
///   capacities to its *own* arrival share, so the shards already split
///   the budget and the merge never draws: each shard's part is its own
///   per-stratum [`StratumStats`], and the parts concatenate (§3.2). The
///   window merge Chan-combines a stratum's per-shard entries, so this is
///   the pooled estimator of the shards' united sample, up to rounding.
/// * Under **fixed-size** directives (per-stratum / shared-total), every
///   shard duplicates the one fixed budget at full capacity and the
///   shard samples are united by the seen-count-weighted reservoir union
///   (`sa_sampling::merge_all_stratified`), preserving uniform inclusion
///   probabilities while holding the merged sample at the budgeted size.
/// * Exact (native) shards reduce to per-stratum Welford statistics which
///   concatenate like a fraction's.
///
/// Shards are always merged in ascending shard-index order, and the
/// window combiner's canonical sort-and-merge (`combine.rs`) keeps a
/// stratum's entries in that order, so a run is bit-for-bit reproducible
/// from its seed.
pub struct ShardSet<R> {
    shards: usize,
    seed: RunSeed,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    directive: Option<SizingDirective>,
}

impl<R> ShardSet<R> {
    /// A shard set of `shards` workers seeded from `seed`, projecting
    /// records through `proj` at estimation time.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, seed: RunSeed, proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardSet {
            shards,
            seed,
            proj,
            directive: None,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Deterministic hash route for the `seq`-th accepted item of the
    /// stream: the run-wide [`RunSeed::derive`] mixing rule over
    /// `(seq, stratum)`, so every stratum spreads across all shards (the
    /// mergeable-sampler layer is what makes cross-shard strata sound)
    /// and a run routes identically on every replay.
    pub fn route(&self, stratum: StratumId, seq: u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (RunSeed::new(seq).derive(u64::from(stratum.0)).value() % self.shards as u64) as usize
    }

    /// Hands out one fresh [`IntervalWorker`] per shard when `directive`
    /// differs from the one currently armed; `None` when the armed workers
    /// can keep running (their capacity adaptation history is preserved,
    /// exactly like the single-threaded sampler pool).
    ///
    /// `expected_items` seeds a fraction policy's first-interval capacity
    /// guess, spread across shards.
    pub fn rearm(
        &mut self,
        directive: SizingDirective,
        expected_items: usize,
    ) -> Option<Vec<IntervalWorker<R>>> {
        if self.directive == Some(directive) {
            return None;
        }
        self.directive = Some(directive);
        let sizing = sampler_sizing(directive, expected_items, self.shards);
        Some(
            (0..self.shards)
                .map(|i| IntervalWorker::for_shard(sizing, self.seed, i, Arc::clone(&self.proj)))
                .collect(),
        )
    }

    /// The directive currently armed, if any.
    pub(crate) fn directive(&self) -> Option<SizingDirective> {
        self.directive
    }

    /// Forces the armed directive without building workers — used on
    /// restore, where the workers come from the snapshot and
    /// [`rearm`](ShardSet::rearm) must not replace them on the next pane.
    pub(crate) fn force_directive(&mut self, directive: Option<SizingDirective>) {
        self.directive = directive;
    }

    /// The projection handle, for rebuilding workers from snapshot state.
    pub(crate) fn projection(&self) -> Arc<dyn Fn(&R) -> f64 + Send + Sync> {
        Arc::clone(&self.proj)
    }

    /// Merges one interval's per-shard closes — given in ascending shard
    /// order — into the interval's [`PanePayload`]. In the engines its one
    /// caller is the pane barrier the sharded engine and the distributed
    /// coordinator share, which draws `rng` from [`pane_merge_seed`] of the
    /// pane's start; only fixed-size budgets draw from it.
    ///
    /// Where the merge takes statistics (`merges_stats`), every part
    /// becomes per-stratum statistics — a [`WorkerPane::Sampled`] part is
    /// reduced by [`StratumStats::from_sample`], a [`WorkerPane::Stats`]
    /// part is taken as it is — and the parts concatenate in shard order:
    /// one entry per stratum per shard. A single part's statistics are
    /// bit-identical to projecting its sample centrally.
    ///
    /// # Panics
    ///
    /// Panics if a fixed-size budget's interval holds a statistics part:
    /// its merge draws from the shards' samples.
    pub fn merge_panes<G: Rng + ?Sized>(
        &self,
        panes: Vec<WorkerPane<R>>,
        rng: &mut G,
    ) -> PanePayload {
        let proj = &self.proj;
        let reduce = |sample: &StratifiedSample<R>| {
            sample
                .iter()
                .map(|stratum| StratumStats::from_sample(stratum, |r| proj(r)))
                .collect::<Vec<_>>()
        };
        if self.directive.is_some_and(|d| !merges_stats(d)) {
            let samples: Vec<_> = panes
                .into_iter()
                .map(|pane| match pane {
                    WorkerPane::Sampled(sample) => sample,
                    WorkerPane::Stats(_) => {
                        panic!("a fixed-size budget merges shard samples, not statistics")
                    }
                })
                .collect();
            return PanePayload::Stratified(reduce(&merge_all_stratified(samples, rng)));
        }
        let mut stats = Vec::new();
        for pane in panes {
            match pane {
                WorkerPane::Sampled(sample) => stats.extend(reduce(&sample)),
                WorkerPane::Stats(part) => stats.extend(part),
            }
        }
        PanePayload::Stratified(stats)
    }
}

/// What [`PaneBarrier::offer`] did with a part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Held until its pane merges.
    Held,
    /// Dropped: its pane has already merged.
    Stale,
    /// Dropped: the shard already offered a part of this pane.
    Duplicate,
}

/// One pane the [`PaneBarrier`] released.
#[derive(Debug)]
pub(crate) struct MergedPane {
    pub(crate) window: Window,
    /// The parts merged in shard order, populations widened by `lost`.
    pub(crate) payload: PanePayload,
    /// Items the missing shards are estimated to have held: the present
    /// shards' mean population times the number missing.
    pub(crate) lost: u64,
    /// Shards that neither offered a part nor were excused, ascending.
    pub(crate) missing: Vec<usize>,
}

/// *The* pane barrier of the data-parallel tiers: collects one part per
/// shard per pane, decides when a pane is ready, and merges it. The sharded
/// engine's threads and the distributed coordinator's workers both close
/// panes through it, so the two tiers merge the same parts in the same
/// order under the same RNG — bit for bit.
///
/// A pane is ready once every shard has offered its part or been excused
/// from it. An excuse is lossless: the shard provably holds nothing for
/// the pane (it shut down cleanly, or its watermark passed the pane end),
/// so its part is the empty close an idle shard would produce. A pane
/// blocked only on shards the caller calls gone, or one the caller calls
/// timed out, merges degraded: the missing parts count as empty, their
/// mass is estimated from the parts at hand and the populations are
/// widened to cover it ([`widen_for_shortfall`]). Panes are released in
/// start order, so the watermark never moves back.
///
/// Parts merge in ascending shard order through
/// [`ShardSet::merge_panes`], with the RNG seeded by [`pane_merge_seed`]
/// from the pane's start. The barrier reads no clock and does no I/O:
/// what counts as timed out or gone, and what a stale or duplicate offer
/// means, is the caller's call.
pub(crate) struct PaneBarrier<R> {
    /// Routing, arming and the merge itself.
    pub(crate) shards: ShardSet<R>,
    interval_ms: i64,
    /// Offered parts by pane start, one slot per shard.
    parts: BTreeMap<i64, Vec<Option<WorkerPane<R>>>>,
    /// Per shard: every pane ending at or before this time needs no part.
    excused: Vec<i64>,
    /// The end of the last merged pane.
    merged: Option<i64>,
}

impl<R> PaneBarrier<R> {
    /// A barrier over `shards` for panes of `interval_ms`.
    pub(crate) fn new(shards: ShardSet<R>, interval_ms: i64) -> Self {
        PaneBarrier {
            excused: vec![i64::MIN; shards.num_shards()],
            shards,
            interval_ms,
            parts: BTreeMap::new(),
            merged: None,
        }
    }

    /// The end of the last merged pane, before which every offer is stale.
    pub(crate) fn watermark(&self) -> Option<EventTime> {
        self.merged.map(EventTime::from_millis)
    }

    /// Offers `shard`'s part of the pane starting at `pane_start`. Each
    /// shard offers its parts in pane order, as its FIFO ring or socket
    /// delivers them; a part of a pane that already merged is stale.
    pub(crate) fn offer(&mut self, shard: usize, pane_start: i64, part: WorkerPane<R>) -> Offer {
        if self.merged.is_some_and(|end| pane_start < end) {
            return Offer::Stale;
        }
        let shards = self.excused.len();
        let slots = self
            .parts
            .entry(pane_start)
            .or_insert_with(|| (0..shards).map(|_| None).collect());
        if slots[shard].is_some() {
            return Offer::Duplicate;
        }
        slots[shard] = Some(part);
        Offer::Held
    }

    /// Excuses `shard` from every pane ending at or before `through`.
    pub(crate) fn excuse(&mut self, shard: usize, through: i64) {
        self.excused[shard] = self.excused[shard].max(through);
    }

    /// Merges and releases the earliest offered pane if it is ready, or if
    /// its only gaps are `gone` shards, or if it is `timed_out` (given the
    /// pane start); `None` while it must wait. Call until `None`.
    pub(crate) fn take_ready(
        &mut self,
        timed_out: impl Fn(i64) -> bool,
        gone: impl Fn(usize) -> bool,
    ) -> Option<MergedPane> {
        let (&start, parts) = self.parts.first_key_value()?;
        let end = start + self.interval_ms;
        let missing: Vec<usize> = (0..parts.len())
            .filter(|&shard| parts[shard].is_none() && self.excused[shard] < end)
            .collect();
        if missing.iter().any(|&shard| !gone(shard)) && !timed_out(start) {
            return None;
        }
        let (_, parts) = self.parts.pop_first()?;
        // Hash routing spreads every stratum evenly over the shards, so the
        // present parts' mean population estimates each missing one's.
        let present: Vec<u64> = parts.iter().flatten().map(WorkerPane::population).collect();
        let mass: u128 = present.iter().map(|&items| u128::from(items)).sum();
        let lost = (mass * missing.len() as u128 / present.len().max(1) as u128) as u64;
        // An empty sample is an idle shard's close under every budget.
        let parts = parts
            .into_iter()
            .map(|part| part.unwrap_or_else(|| WorkerPane::Sampled(StratifiedSample::new())))
            .collect();
        let mut rng = SmallRng::seed_from_u64(pane_merge_seed(self.shards.seed, start));
        let mut payload = self.shards.merge_panes(parts, &mut rng);
        if let PanePayload::Stratified(stats) = &mut payload {
            widen_for_shortfall(stats, lost);
        }
        self.merged = Some(end);
        Some(MergedPane {
            window: Window::new(EventTime::from_millis(start), EventTime::from_millis(end)),
            payload,
            lost,
            missing,
        })
    }
}

/// The longest pane interval that tiles `spec`'s windows: the greatest
/// common divisor of size and slide, so every pane lies wholly inside or
/// wholly outside every window.
pub(crate) fn window_tile_ms(spec: WindowSpec) -> i64 {
    let (mut a, mut b) = (spec.size_millis(), spec.slide_millis());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The refusal of a pane interval that does not divide [`window_tile_ms`].
pub(crate) fn untiled_interval(interval_ms: i64) -> SaError {
    SaError::InvalidConfig(format!(
        "a {interval_ms} ms pane interval does not divide both the window size and the slide, \
         so panes would straddle window bounds"
    ))
}

/// The gap-jump horizon for windows of `spec`: twice `size + slide` (see
/// [`PaneDriver`]'s invariants).
fn skip_horizon_ms(spec: WindowSpec) -> i64 {
    2 * (spec.size_millis() + spec.slide_millis())
}

/// `time` in ms, or the refusal of a time on which pane or window
/// arithmetic could overflow: one pane interval plus the skip horizon of
/// headroom at either end of `i64` keeps the pane's own bounds, the
/// watermark it becomes, and every window end derived from that watermark
/// representable. Only the [`PaneDriver`] asks, so every engine refuses
/// the same times.
fn representable(time: EventTime, interval_ms: i64, skip_horizon_ms: i64) -> Result<i64, SaError> {
    let t = time.as_millis();
    let margin = interval_ms.saturating_add(skip_horizon_ms);
    if t < i64::MIN.saturating_add(margin) || t > i64::MAX.saturating_sub(margin) {
        return Err(SaError::InvalidConfig(format!(
            "event time {t} ms is outside the range {interval_ms} ms panes can represent"
        )));
    }
    Ok(t)
}

/// What a substrate does with the panes the [`PaneDriver`] cuts: take the
/// open pane's items, and close it. Where panes begin and end is the
/// driver's business alone.
pub(crate) trait PaneSink<R> {
    /// One item of the open pane.
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError>;

    /// A non-empty run of the open pane's items, in stream order. The
    /// sink may drain the buffer or take it whole; the driver drops
    /// whatever is left in it.
    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError>;

    /// The open pane is over: no later item belongs to it. Quiet
    /// intervals close without having been fed anything.
    fn close_pane(&mut self, pane: Window) -> Result<(), SaError>;
}

/// *The* pane path: cuts a time-ordered stream into event-time panes and
/// drives a [`PaneSink`] with them. Every push-driven engine — aggregated,
/// batched, sharded, pipelined, the distributed worker — embeds one driver
/// and keeps only its substrate-specific sink, so the engines' pane-for-pane
/// agreement is structural, and chunked and per-item ingestion cannot
/// drift apart: [`push`](PaneDriver::push) and
/// [`push_chunk`](PaneDriver::push_chunk) share one boundary routine.
///
/// The invariants every engine relies on:
///
/// * **Alignment** — panes are `[k·interval, (k+1)·interval)`: the first
///   item opens the pane of the interval grid that contains it.
/// * **Panes tile windows** — window assembly assigns a pane to the windows
///   containing its start, which is the whole pane only when the interval
///   divides both the window size and the slide. The default interval is
///   their greatest common divisor ([`window_tile_ms`]; the slide itself
///   whenever the slide divides the size); an explicit interval that does
///   not divide it is refused, with the first item, before anything is
///   opened.
/// * **Quiet intervals are empty panes** — when an item lies past the open
///   pane's end, that pane and every interval between the two are closed
///   in order (each a `close_pane` with nothing fed), so window assembly
///   sees every pane and per-pane policy consultation keeps its cadence.
/// * **Gap-jump horizon** — a gap longer than twice `window size + slide`
///   holds only panes no window spanning data can cover, so after closing
///   the open pane the driver jumps straight to the item's own pane: a
///   far-future timestamp costs one pane, not one per elapsed interval
///   (the matching window-side bound lives in [`PaneWindower::advance`]).
/// * **Representable panes only** — an event time so close to the ends of
///   `i64` that pane or window arithmetic on it could overflow is refused
///   with an error *before* anything is closed or fed; the stream so far
///   is untouched and later in-range items are still accepted. The check
///   runs only where a pane is opened or advanced, never per item.
/// * **Final flush** — between calls an open pane always holds at least
///   one item, so [`finish`](PaneDriver::finish) closes it if there is
///   one; trailing quiet intervals produce no pane.
pub(crate) struct PaneDriver {
    interval_ms: i64,
    /// Whether `interval_ms` tiles the window (see the invariants).
    tiles: bool,
    skip_horizon_ms: i64,
    /// The open pane, once the first item has arrived.
    open: Option<Window>,
}

impl PaneDriver {
    /// A driver cutting panes for windows of `spec`: of `interval_ms` when
    /// given, else of the longest interval that tiles the window.
    pub(crate) fn new(interval_ms: Option<i64>, spec: WindowSpec) -> Self {
        let tile_ms = window_tile_ms(spec);
        let interval_ms = interval_ms.unwrap_or(tile_ms);
        assert!(interval_ms > 0, "pane interval must be positive");
        PaneDriver {
            interval_ms,
            tiles: tile_ms % interval_ms == 0,
            skip_horizon_ms: skip_horizon_ms(spec),
            open: None,
        }
    }

    /// Feeds one item (event times non-decreasing across calls).
    #[inline]
    pub(crate) fn push<R, S: PaneSink<R>>(
        &mut self,
        item: StreamItem<R>,
        sink: &mut S,
    ) -> Result<(), SaError> {
        self.open_pane_for(item.time, sink)?;
        sink.observe(item)
    }

    /// Feeds a time-ordered chunk: boundary work runs once per pane
    /// portion, and each portion reaches the sink as one run — the whole
    /// chunk, untouched, when it lies inside the open pane.
    pub(crate) fn push_chunk<R, S: PaneSink<R>>(
        &mut self,
        mut items: Vec<StreamItem<R>>,
        sink: &mut S,
    ) -> Result<(), SaError> {
        // The chunk is time-ordered, so its ends bound every item: refuse
        // it whole rather than ingest a prefix of it.
        if let Some(last) = items.last() {
            self.pane_of(last.time)?;
        }
        while let Some(first) = items.first() {
            let end = self.open_pane_for(first.time, sink)?;
            let n = items.partition_point(|it| it.time < end);
            // Allocates (and copies the tail) only when the chunk straddles
            // the pane end; the head is fed in place.
            let rest = items.split_off(n);
            sink.observe_run(&mut items)?;
            items = rest;
        }
        Ok(())
    }

    /// Ends the stream: closes the open pane, if any.
    pub(crate) fn finish<R, S: PaneSink<R>>(&mut self, sink: &mut S) -> Result<(), SaError> {
        self.open
            .take()
            .map_or(Ok(()), |pane| sink.close_pane(pane))
    }

    /// The pane length in ms.
    pub(crate) fn interval_ms(&self) -> i64 {
        self.interval_ms
    }

    /// The open pane's start in ms, for engine snapshots (`None` before
    /// the first item).
    pub(crate) fn start(&self) -> Option<i64> {
        self.open.map(|pane| pane.start.as_millis())
    }

    /// Restores the open pane from a snapshot's start.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] when `start` is not a representable pane of
    /// this driver's interval grid — the snapshot was taken under another
    /// pane interval, or is corrupt.
    pub(crate) fn restore_start(&mut self, start: Option<i64>) -> Result<(), SaError> {
        self.open = match start.map(EventTime::from_millis) {
            None => None,
            Some(at) => match self.pane_of(at) {
                Ok(pane) if pane.start == at => Some(pane),
                _ => {
                    return Err(SaError::Checkpoint(format!(
                        "snapshot pane start {at} is not a pane of this engine's {} ms interval",
                        self.interval_ms
                    )))
                }
            },
        };
        Ok(())
    }

    /// The grid pane containing `time`, or the refusal for a time
    /// [`representable`] refuses.
    fn pane_of(&self, time: EventTime) -> Result<Window, SaError> {
        if !self.tiles {
            return Err(untiled_interval(self.interval_ms));
        }
        let t = representable(time, self.interval_ms, self.skip_horizon_ms)?;
        let start = EventTime::from_millis(t.div_euclid(self.interval_ms) * self.interval_ms);
        Ok(Window::new(start, start + self.interval_ms))
    }

    /// Makes the pane containing `time` the open one and returns its end.
    #[inline]
    fn open_pane_for<R, S: PaneSink<R>>(
        &mut self,
        time: EventTime,
        sink: &mut S,
    ) -> Result<EventTime, SaError> {
        match self.open {
            Some(pane) if time < pane.end => Ok(pane.end),
            _ => self.advance(time, sink),
        }
    }

    /// The boundary routine: `time` is the first item's, or lies past the
    /// open pane. Locates its pane first, so a refused item changes
    /// nothing.
    fn advance<R, S: PaneSink<R>>(
        &mut self,
        time: EventTime,
        sink: &mut S,
    ) -> Result<EventTime, SaError> {
        let target = self.pane_of(time)?;
        while let Some(pane) = self.open.filter(|pane| pane.end <= time) {
            sink.close_pane(pane)?;
            // Both panes sit on the interval grid, so `target` starts at
            // or after `pane.end` and the adjacent pane ends no later than
            // `target` does.
            let gap = i64::saturating_sub(target.start.as_millis(), pane.end.as_millis());
            self.open = Some(if gap > self.skip_horizon_ms {
                target
            } else {
                Window::new(pane.end, pane.end + self.interval_ms)
            });
        }
        self.open = Some(target);
        Ok(target.end)
    }
}

/// What the windower lends a completed window: `(pane start, payload)` for
/// every payload of every pane it covers, in pane order.
type LentPanes<'p> = [(i64, &'p PanePayload)];

/// Pane-to-window assembly and finalization: owns the [`PaneWindower`]
/// state and turns completed windows into [`WindowResult`]s by merging the
/// panes the windower lends them (`combine.rs`). A window is merged from
/// per-tile canonical merges folded by a fixed block-aligned tree: the
/// finalizer keeps the current block's suffix aggregates and the next
/// block's running prefix between windows, so a wide sliding window costs
/// about three two-way merges rather than a merge of all its panes, and a
/// tumbling window is one tile merge with nothing kept. What it keeps is
/// not state: a restored finalizer rebuilds it with the same bits. The
/// engine-facing surface mirrors [`ApproxRuntime`]: `ingest_interval`,
/// `close_interval`, `drain_windows`.
pub struct WindowFinalizer {
    windower: PaneWindower<PanePayload>,
    merge: SlidingMerge,
    confidence: Confidence,
    completed: Vec<WindowResult>,
    /// Degraded-merge ledger: pane start (ms) → estimated items lost to
    /// missing shards in that pane. Windows touching these panes finalize
    /// with `degraded: true` and the summed loss; entries are pruned once
    /// no future window can cover them.
    degraded_panes: BTreeMap<i64, u64>,
}

impl WindowFinalizer {
    /// A finalizer assembling `spec` windows at the given confidence.
    pub fn new(spec: WindowSpec, confidence: Confidence) -> Self {
        WindowFinalizer {
            windower: PaneWindower::new(spec),
            merge: SlidingMerge::new(spec),
            confidence,
            completed: Vec::new(),
            degraded_panes: BTreeMap::new(),
        }
    }

    /// Records that the pane starting at `pane_start` merged without every
    /// live shard's digest, with an estimated `lost` items missing. Every
    /// window covering this pane finalizes with `degraded: true` and the
    /// loss folded into its `lost_items`.
    pub fn note_degraded_pane(&mut self, pane_start: i64, lost: u64) {
        *self.degraded_panes.entry(pane_start).or_insert(0) += lost;
    }

    /// The confidence level estimates are reported at.
    pub fn confidence(&self) -> Confidence {
        self.confidence
    }

    /// Registers one pane's payload. This is where the window merge's
    /// invariant is established: the payload is put in ascending-stratum
    /// order (a check for sampler output, which already is) once, here,
    /// rather than sorted again by every window that covers the pane.
    pub fn ingest_interval(&mut self, pane: Window, mut payload: PanePayload) {
        payload.sort_by_stratum();
        self.merge.pane_added(pane.start.as_millis());
        self.windower.add_pane(pane, payload);
    }

    /// Advances the watermark, finalizing every window it completes.
    pub fn close_interval(&mut self, watermark: EventTime) {
        let (windower, finalize) = self.lend();
        windower.advance(watermark, finalize);
    }

    /// Flushes every remaining window at end of stream.
    pub fn finish(&mut self) {
        let (windower, finalize) = self.lend();
        windower.finish(finalize);
    }

    /// Takes the windows finalized since the last drain.
    pub fn drain_windows(&mut self) -> Vec<WindowResult> {
        std::mem::take(&mut self.completed)
    }

    /// The windower, and what it calls with each completed window and the
    /// panes it lends it: merge and estimate, then stamp the result with
    /// the degraded-merge ledger's entries for the panes it covers.
    fn lend(
        &mut self,
    ) -> (
        &mut PaneWindower<PanePayload>,
        impl FnMut(Window, &LentPanes<'_>) + '_,
    ) {
        let WindowFinalizer {
            windower,
            merge,
            confidence,
            completed,
            degraded_panes,
        } = self;
        let finalize = move |window: Window, panes: &LentPanes<'_>| {
            let mut result = merge.combine(window, panes, *confidence);
            let (start, end) = (window.start.as_millis(), window.end.as_millis());
            for (_, &lost) in degraded_panes.range(start..end) {
                result.degraded = true;
                result.lost_items += lost;
            }
            // Windows finalize in ascending start order, so ledger entries
            // before this window's start can never be covered again.
            *degraded_panes = degraded_panes.split_off(&start);
            completed.push(result);
        };
        (windower, finalize)
    }

    /// Serializes the windower's open panes, watermark and any undrained
    /// completed windows for an engine snapshot. The spec and confidence
    /// are not state: a restored engine rebuilds them from the query.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        let (panes, watermark) = self.windower.state();
        watermark.encode(out);
        put_varint(out, panes.len() as u64);
        for (&start, payloads) in panes {
            start.encode(out);
            payloads.encode(out);
        }
        self.completed.encode(out);
        put_varint(out, self.degraded_panes.len() as u64);
        for (&start, &lost) in &self.degraded_panes {
            start.encode(out);
            put_varint(out, lost);
        }
    }

    /// Restores the windower's panes, watermark and undrained windows
    /// from a snapshot.
    pub(crate) fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), SaError> {
        let watermark = EventTime::decode(r)?;
        let n = r.read_len()?;
        let mut panes: BTreeMap<i64, Vec<PanePayload>> = BTreeMap::new();
        for _ in 0..n {
            let start = i64::decode(r)?;
            let mut payloads = Vec::<PanePayload>::decode(r)?;
            // Stored in stratum order; a snapshot that is not is put back
            // in it rather than trusted.
            payloads.iter_mut().for_each(PanePayload::sort_by_stratum);
            if panes.insert(start, payloads).is_some() {
                return Err(SaError::Wire(format!(
                    "duplicate pane start {start} in windower state"
                )));
            }
        }
        self.windower.restore_state(panes, watermark);
        self.merge = SlidingMerge::new(self.windower.spec());
        self.completed = Vec::decode(r)?;
        let count = r.read_len()?;
        let mut degraded = BTreeMap::new();
        for _ in 0..count {
            let start = i64::decode(r)?;
            let lost = r.read_varint()?;
            if degraded.insert(start, lost).is_some() {
                return Err(SaError::Wire(format!(
                    "duplicate degraded pane {start} in finalizer state"
                )));
            }
        }
        self.degraded_panes = degraded;
        Ok(())
    }
}

/// A persistent pool of per-worker OASRS samplers, rebuilt only when the
/// policy's directive changes so capacity adaptation keeps its history.
struct SamplerPool<R> {
    directive: SizingDirective,
    samplers: Vec<OasrsSampler<R>>,
}

/// The full engine-agnostic per-interval loop, for engines driven from a
/// single control thread.
///
/// The runtime owns everything the paper's architecture (§4.1) puts
/// around the engine: the sampler pool and its sizing, the cost-policy
/// feedback loop ("virtual cost function", §7), window assembly and
/// estimation, and the run metrics. The driving engine only:
///
/// 1. asks [`interval_sizing`](ApproxRuntime::interval_sizing) what the
///    next interval should do,
/// 2. computes the interval's [`PanePayload`] its own way (that part *is*
///    the engine — dataset jobs, shuffles, operator stages), borrowing
///    samplers via [`checkout_samplers`](ApproxRuntime::checkout_samplers)
///    when sampling,
/// 3. hands the payload to
///    [`ingest_interval`](ApproxRuntime::ingest_interval) and advances the
///    watermark with [`close_interval`](ApproxRuntime::close_interval),
/// 4. drains completed windows incrementally with
///    [`take_windows`](ApproxRuntime::take_windows) and collects the
///    finished run from [`finish`](ApproxRuntime::finish).
///
/// Threaded engines that cannot route everything through one object embed
/// the runtime's parts directly: [`IntervalWorker`] per parallel worker,
/// [`WindowFinalizer`] in the window stage.
pub struct ApproxRuntime<'p, R> {
    policy: PolicyHandle<'p>,
    finalizer: WindowFinalizer,
    pool: Option<SamplerPool<R>>,
    seed: RunSeed,
    workers: usize,
    ingested: u64,
    aggregated: u64,
    panes: u64,
    started: Instant,
}

impl<'p, R> ApproxRuntime<'p, R> {
    /// A runtime executing `query` under `policy` (borrowed or owned, see
    /// [`PolicyHandle`]), with `workers` parallel sampling workers seeded
    /// from `seed`.
    pub fn new(
        query: &Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        seed: RunSeed,
        workers: usize,
    ) -> Self {
        ApproxRuntime {
            policy: policy.into(),
            finalizer: WindowFinalizer::new(query.window(), query.confidence()),
            pool: None,
            seed,
            workers: workers.max(1),
            ingested: 0,
            aggregated: 0,
            panes: 0,
            started: Instant::now(),
        }
    }

    /// Panes ingested over the run — the cadence counter checkpoint
    /// policies measure "panes since the last snapshot" against.
    pub fn panes_closed(&self) -> u64 {
        self.panes
    }

    /// The cost policy's directive for the next interval.
    pub fn interval_sizing(&mut self) -> SizingDirective {
        self.policy.interval_sizing()
    }

    /// Borrows the per-worker samplers for one interval, (re)building the
    /// pool when the directive changed since the last interval. Return
    /// them with [`checkin_samplers`](ApproxRuntime::checkin_samplers) so
    /// capacity adaptation carries across intervals.
    ///
    /// # Panics
    ///
    /// Panics if called with [`SizingDirective::Everything`] — exact
    /// intervals have no samplers.
    pub fn checkout_samplers(
        &mut self,
        directive: SizingDirective,
        expected_items: usize,
    ) -> Vec<OasrsSampler<R>> {
        // An empty sampler list means a prior checkout was never matched by
        // a checkin (an engine bug or error path); rebuild rather than hand
        // out an empty worker set, which would fail far from the cause.
        let rebuild = match &self.pool {
            Some(pool) => pool.directive != directive || pool.samplers.is_empty(),
            None => true,
        };
        if rebuild {
            let sizing = sampler_sizing(directive, expected_items, self.workers)
                .expect("checkout_samplers needs a sampling directive");
            self.pool = Some(SamplerPool {
                directive,
                samplers: (0..self.workers)
                    .map(|i| OasrsSampler::for_worker(sizing, self.seed.value(), i, self.workers))
                    .collect(),
            });
        }
        std::mem::take(&mut self.pool.as_mut().expect("pool just ensured").samplers)
    }

    /// Returns borrowed samplers to the pool.
    pub fn checkin_samplers(&mut self, samplers: Vec<OasrsSampler<R>>) {
        if let Some(pool) = &mut self.pool {
            pool.samplers = samplers;
        }
    }

    /// Ingests one completed interval: updates the run counters, feeds the
    /// cost policy its [`IntervalFeedback`], and registers the pane for
    /// window assembly.
    pub fn ingest_interval(
        &mut self,
        pane: Window,
        payload: PanePayload,
        arrived: u64,
        process_nanos: u64,
    ) {
        self.ingested += arrived;
        self.aggregated += payload.sampled();
        self.panes += 1;
        let relative_error = match &payload {
            PanePayload::Stratified(stats) if !stats.is_empty() => {
                Some(estimate_mean(stats, self.finalizer.confidence()).relative_error())
            }
            _ => None,
        };
        self.policy.observe(&IntervalFeedback {
            items: arrived,
            sampled: payload.sampled(),
            process_nanos,
            relative_error,
        });
        self.finalizer.ingest_interval(pane, payload);
    }

    /// Advances the watermark, finalizing every window it completes.
    pub fn close_interval(&mut self, watermark: EventTime) {
        self.finalizer.close_interval(watermark);
    }

    /// Takes the windows finalized since the last take — the incremental
    /// drain an [`crate::ApproxSession`] serves `poll_windows` from.
    pub fn take_windows(&mut self) -> Vec<WindowResult> {
        self.finalizer.drain_windows()
    }

    /// Serializes the runtime's snapshotable state: run counters, the
    /// sampler pool (directive plus every sampler's mid-adaptation state)
    /// and the window finalizer. Deliberately excluded: wall-clock time
    /// and cost-policy adaptation (see `crate::checkpoint` module docs).
    pub(crate) fn encode_state(&self, codec: RecordCodec<R>, out: &mut Vec<u8>) {
        put_varint(out, self.ingested);
        put_varint(out, self.aggregated);
        put_varint(out, self.panes);
        match &self.pool {
            None => 0u8.encode(out),
            Some(pool) => {
                1u8.encode(out);
                pool.directive.encode(out);
                put_varint(out, pool.samplers.len() as u64);
                for s in &pool.samplers {
                    s.encode_state_with(out, &mut |v, out| (codec.encode)(v, out));
                }
            }
        }
        self.finalizer.encode_state(out);
    }

    /// Restores the runtime's snapshotable state in place. The policy,
    /// seed, worker count and finalizer spec keep their freshly-built
    /// values — they derive from the query and configuration, which must
    /// match the snapshotting run's.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut WireReader<'_>,
        codec: RecordCodec<R>,
    ) -> Result<(), SaError> {
        self.ingested = r.read_varint()?;
        self.aggregated = r.read_varint()?;
        self.panes = r.read_varint()?;
        self.pool = match u8::decode(r)? {
            0 => None,
            1 => {
                let directive = SizingDirective::decode(r)?;
                let n = r.read_len()?;
                let mut samplers = Vec::with_capacity(n);
                for _ in 0..n {
                    samplers.push(OasrsSampler::decode_state_with(r, &mut |r| {
                        (codec.decode)(r)
                    })?);
                }
                Some(SamplerPool {
                    directive,
                    samplers,
                })
            }
            tag => {
                return Err(SaError::Wire(format!("unknown sampler-pool tag {tag}")));
            }
        };
        self.finalizer.restore_state(r)
    }

    /// Ends the run: flushes trailing windows and returns the completed
    /// [`RunOutput`]. Its `windows` are those not already removed through
    /// [`take_windows`](ApproxRuntime::take_windows); the item counters
    /// always cover the whole run.
    #[must_use = "finish returns the run's windows and metrics"]
    pub fn finish(mut self) -> RunOutput {
        self.finalizer.finish();
        RunOutput {
            windows: self.finalizer.drain_windows(),
            items_ingested: self.ingested,
            items_aggregated: self.aggregated,
            elapsed: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FixedFraction;
    use rand::SeedableRng;

    fn query() -> Query<f64> {
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000))
    }

    fn pane(start_ms: i64) -> Window {
        Window::new(
            EventTime::from_millis(start_ms),
            EventTime::from_millis(start_ms + 1_000),
        )
    }

    fn exact_stats(stratum: u32, values: &[f64]) -> Vec<StratumStats> {
        let acc: Welford = values.iter().copied().collect();
        vec![StratumStats::from_parts(
            StratumId(stratum),
            acc.count(),
            acc,
        )]
    }

    /// A policy that records the feedback it receives.
    struct Recording {
        directives: Vec<SizingDirective>,
        observed: Vec<IntervalFeedback>,
        next: SizingDirective,
    }

    impl Recording {
        fn new(next: SizingDirective) -> Self {
            Recording {
                directives: Vec::new(),
                observed: Vec::new(),
                next,
            }
        }
    }

    impl CostPolicy for Recording {
        fn interval_sizing(&mut self) -> SizingDirective {
            self.directives.push(self.next);
            self.next
        }

        fn observe(&mut self, feedback: &IntervalFeedback) {
            self.observed.push(*feedback);
        }
    }

    #[test]
    fn sizing_covers_every_directive() {
        assert_eq!(sampler_sizing(SizingDirective::Everything, 100, 2), None);
        assert_eq!(
            sampler_sizing(SizingDirective::PerStratum(7), 100, 2),
            Some(SizingPolicy::PerStratum(7))
        );
        assert_eq!(
            sampler_sizing(SizingDirective::SharedTotal(9), 100, 2),
            Some(SizingPolicy::SharedTotal(9))
        );
        let Some(SizingPolicy::FractionOfPrevious { fraction, initial }) =
            sampler_sizing(SizingDirective::Fraction(0.5), 10_000, 2)
        else {
            panic!("expected a fraction policy");
        };
        assert_eq!(fraction, 0.5);
        assert_eq!(initial, 625); // 0.5 × 10_000 / 2 workers / 4 strata
    }

    #[test]
    fn interval_worker_exact_counts_and_closes() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let mut w = IntervalWorker::for_worker(None, RunSeed::DEFAULT, 0, 1, proj);
        for v in 0..10 {
            w.observe(StratumId(0), f64::from(v));
        }
        let stats = w.close_interval();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].sample_size(), 10);
        assert_eq!(w.counters(), (10, 10));
        // Interval state re-armed.
        assert!(w.close_interval().is_empty());
    }

    #[test]
    fn interval_worker_sampling_respects_budget() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let mut w = IntervalWorker::for_worker(
            Some(SizingPolicy::PerStratum(5)),
            RunSeed::DEFAULT,
            0,
            1,
            proj,
        );
        for v in 0..100 {
            w.observe(StratumId(0), f64::from(v));
        }
        let stats = w.close_interval();
        assert_eq!(stats[0].sample_size(), 5);
        assert_eq!(stats[0].population, 100);
        assert_eq!(w.counters(), (100, 5));
    }

    #[test]
    fn finalizer_completes_windows_in_watermark_order() {
        let mut f = WindowFinalizer::new(WindowSpec::tumbling_millis(1_000), Confidence::P95);
        f.ingest_interval(
            pane(0),
            PanePayload::Stratified(exact_stats(0, &[1.0, 2.0])),
        );
        f.ingest_interval(pane(1_000), PanePayload::Stratified(exact_stats(0, &[3.0])));
        f.close_interval(EventTime::from_millis(1_000));
        let first = f.drain_windows();
        assert_eq!(first.len(), 1);
        assert!((first[0].sum.value - 3.0).abs() < 1e-12);
        f.finish();
        let rest = f.drain_windows();
        assert_eq!(rest.len(), 1);
        assert!((rest[0].sum.value - 3.0).abs() < 1e-12);
        assert!(f.drain_windows().is_empty());
    }

    #[test]
    fn runtime_feeds_policy_and_assembles_output() {
        let mut policy = Recording::new(SizingDirective::Everything);
        let q = query();
        let mut rt: ApproxRuntime<'_, f64> =
            ApproxRuntime::new(&q, &mut policy, RunSeed::DEFAULT, 2);
        assert_eq!(rt.interval_sizing(), SizingDirective::Everything);
        rt.ingest_interval(
            pane(0),
            PanePayload::Stratified(exact_stats(0, &[1.0, 2.0, 3.0])),
            3,
            1_000,
        );
        rt.close_interval(EventTime::from_millis(1_000));
        let out = rt.finish();
        assert_eq!(out.items_ingested, 3);
        assert_eq!(out.items_aggregated, 3);
        assert_eq!(out.windows.len(), 1);
        assert!((out.windows[0].sum.value - 6.0).abs() < 1e-12);
        assert_eq!(policy.observed.len(), 1);
        assert_eq!(policy.observed[0].items, 3);
        assert_eq!(policy.observed[0].process_nanos, 1_000);
        assert!(policy.observed[0].relative_error.is_some());
    }

    #[test]
    fn take_windows_drains_incrementally_without_ending_the_run() {
        let mut policy = Recording::new(SizingDirective::Everything);
        let q = query();
        let mut rt: ApproxRuntime<'_, f64> =
            ApproxRuntime::new(&q, &mut policy, RunSeed::DEFAULT, 1);
        rt.ingest_interval(
            pane(0),
            PanePayload::Stratified(exact_stats(0, &[1.0])),
            1,
            10,
        );
        rt.close_interval(EventTime::from_millis(1_000));
        // The first window is observable mid-run...
        let early = rt.take_windows();
        assert_eq!(early.len(), 1);
        assert!(rt.take_windows().is_empty());
        // ...and the run continues: a second interval still finalizes.
        rt.ingest_interval(
            pane(1_000),
            PanePayload::Stratified(exact_stats(0, &[2.0])),
            1,
            10,
        );
        let out = rt.finish();
        assert_eq!(out.windows.len(), 1, "only the undrained window remains");
        assert_eq!(out.items_ingested, 2, "counters cover the whole run");
    }

    #[test]
    fn sampler_pool_persists_until_directive_changes() {
        let mut policy = FixedFraction(0.5);
        let q = query();
        let mut rt: ApproxRuntime<'_, f64> =
            ApproxRuntime::new(&q, &mut policy, RunSeed::DEFAULT, 2);
        let mut samplers = rt.checkout_samplers(SizingDirective::Fraction(0.5), 1_000);
        assert_eq!(samplers.len(), 2);
        // Feed one so the pool has history to preserve.
        samplers[0].observe(StratumId(0), 1.0);
        let seen_before = samplers[0].total_seen();
        rt.checkin_samplers(samplers);
        // Same directive: same samplers come back (history kept).
        let samplers = rt.checkout_samplers(SizingDirective::Fraction(0.5), 1_000);
        assert_eq!(samplers[0].total_seen(), seen_before);
        rt.checkin_samplers(samplers);
        // Changed directive: pool rebuilt.
        let samplers = rt.checkout_samplers(SizingDirective::PerStratum(8), 1_000);
        assert_eq!(samplers[0].total_seen(), 0);
        rt.checkin_samplers(samplers);
    }

    #[test]
    fn unmatched_checkout_rebuilds_instead_of_handing_out_nothing() {
        let mut policy = FixedFraction(0.5);
        let q = query();
        let mut rt: ApproxRuntime<'_, f64> =
            ApproxRuntime::new(&q, &mut policy, RunSeed::DEFAULT, 2);
        // Checkout without a matching checkin (an engine error path).
        let lost = rt.checkout_samplers(SizingDirective::Fraction(0.5), 1_000);
        assert_eq!(lost.len(), 2);
        drop(lost);
        // Same directive again: the pool must rebuild, not return nothing.
        let fresh = rt.checkout_samplers(SizingDirective::Fraction(0.5), 1_000);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn empty_payload_feedback_has_no_error_estimate() {
        let mut policy = Recording::new(SizingDirective::Everything);
        let q = query();
        let mut rt: ApproxRuntime<'_, f64> =
            ApproxRuntime::new(&q, &mut policy, RunSeed::DEFAULT, 1);
        rt.ingest_interval(pane(0), PanePayload::Stratified(Vec::new()), 0, 10);
        let out = rt.finish();
        assert_eq!(out.items_ingested, 0);
        assert_eq!(policy.observed[0].relative_error, None);
    }

    #[test]
    fn sampling_worker_union_matches_single_worker_population() {
        // Two workers halving one stream: closed stats must cover the full
        // population when combined — the distributed-correctness invariant
        // both engines rely on.
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let sizing = Some(SizingPolicy::PerStratum(10));
        let mut w0 = IntervalWorker::for_worker(sizing, RunSeed::new(3), 0, 2, Arc::clone(&proj));
        let mut w1 = IntervalWorker::for_worker(sizing, RunSeed::new(3), 1, 2, proj);
        for v in 0..50 {
            w0.observe(StratumId(0), f64::from(v));
            w1.observe(StratumId(0), f64::from(v + 50));
        }
        let mut stats = w0.close_interval();
        stats.extend(w1.close_interval());
        let merged = {
            let mut it = stats.into_iter();
            let mut first = it.next().expect("stats from worker 0");
            for s in it {
                first.merge(&s);
            }
            first
        };
        assert_eq!(merged.population, 100);
        assert_eq!(merged.sample_size(), 10);
    }

    #[test]
    fn for_shard_of_one_matches_worker_zero_of_one() {
        // The N=1 bit-for-bit guarantee rests on this: shard 0 of a
        // 1-shard set and worker 0 of a 1-worker pool draw the same
        // sample from the same seed.
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let sizing = Some(SizingPolicy::PerStratum(5));
        let mut shard = IntervalWorker::for_shard(sizing, RunSeed::new(9), 0, Arc::clone(&proj));
        let mut worker = IntervalWorker::for_worker(sizing, RunSeed::new(9), 0, 1, proj);
        for v in 0..200 {
            shard.observe(StratumId(v % 3), f64::from(v));
            worker.observe(StratumId(v % 3), f64::from(v));
        }
        assert_eq!(shard.close_interval(), worker.close_interval());
    }

    #[test]
    fn shard_set_rearms_only_on_directive_change() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let mut set: ShardSet<f64> = ShardSet::new(2, RunSeed::DEFAULT, proj);
        let first = set.rearm(SizingDirective::PerStratum(4), 100);
        assert_eq!(first.expect("first arm builds workers").len(), 2);
        assert!(set.rearm(SizingDirective::PerStratum(4), 100).is_none());
        assert!(set.rearm(SizingDirective::Fraction(0.5), 100).is_some());
    }

    #[test]
    fn shard_set_routes_deterministically_across_all_shards() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let set: ShardSet<f64> = ShardSet::new(4, RunSeed::DEFAULT, proj);
        let mut hit = [0usize; 4];
        for seq in 0..4_000u64 {
            let shard = set.route(StratumId(seq as u32 % 3), seq);
            assert_eq!(shard, set.route(StratumId(seq as u32 % 3), seq));
            hit[shard] += 1;
        }
        for (shard, &count) in hit.iter().enumerate() {
            assert!(count > 700, "shard {shard} starved: {count}/4000");
        }
    }

    #[test]
    fn shard_set_merges_fixed_budgets_down_to_capacity() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let mut set: ShardSet<f64> = ShardSet::new(2, RunSeed::new(5), proj);
        let mut workers = set
            .rearm(SizingDirective::PerStratum(6), 0)
            .expect("first arm");
        for v in 0..40 {
            workers[0].observe(StratumId(0), f64::from(v));
            workers[1].observe(StratumId(0), f64::from(v + 40));
        }
        let panes: Vec<WorkerPane<f64>> = workers
            .iter_mut()
            .map(IntervalWorker::close_interval_parts)
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let PanePayload::Stratified(stats) = set.merge_panes(panes, &mut rng) else {
            panic!("stratified payload expected");
        };
        assert_eq!(stats.len(), 1);
        // Full population represented, sample held at the one budget.
        assert_eq!(stats[0].population, 80);
        assert_eq!(stats[0].sample_size(), 6);
    }

    #[test]
    fn shard_set_merges_fraction_shards_by_union() {
        let proj: Arc<dyn Fn(&f64) -> f64 + Send + Sync> = Arc::new(|v| *v);
        let mut set: ShardSet<f64> = ShardSet::new(2, RunSeed::new(6), proj);
        let mut workers = set
            .rearm(SizingDirective::Fraction(0.5), 400)
            .expect("first arm");
        // Second interval so capacities have adapted to 0.5 × arrivals.
        let mut last = 0;
        for _ in 0..2 {
            for v in 0..100 {
                workers[0].observe(StratumId(0), f64::from(v));
                workers[1].observe(StratumId(0), f64::from(v));
            }
            let panes: Vec<WorkerPane<f64>> = workers
                .iter_mut()
                .map(IntervalWorker::close_interval_parts)
                .collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
            let PanePayload::Stratified(stats) = set.merge_panes(panes, &mut rng) else {
                panic!("stratified payload expected");
            };
            // One entry per shard: the merge concatenates the shards'
            // statistics, and the window merge combines them.
            assert_eq!(stats.len(), 2);
            assert_eq!(stats.iter().map(|s| s.population).sum::<u64>(), 200);
            last = stats.iter().map(StratumStats::sample_size).sum();
        }
        // Both shards sampled ~50 of their 100: together they carry ~100
        // of the 200 — the fraction budget split across shards, not doubled.
        assert_eq!(last, 100);
    }

    /// A sink that records what the driver hands it: the open pane's item
    /// times, moved into `panes` with the pane's window at every close.
    #[derive(Default)]
    struct Recorder {
        open: Vec<i64>,
        panes: Vec<(Window, Vec<i64>)>,
    }

    impl PaneSink<()> for Recorder {
        fn observe(&mut self, item: StreamItem<()>) -> Result<(), SaError> {
            self.open.push(item.time.as_millis());
            Ok(())
        }

        fn observe_run(&mut self, items: &mut Vec<StreamItem<()>>) -> Result<(), SaError> {
            self.open
                .extend(items.drain(..).map(|item| item.time.as_millis()));
            Ok(())
        }

        fn close_pane(&mut self, pane: Window) -> Result<(), SaError> {
            self.panes.push((pane, std::mem::take(&mut self.open)));
            Ok(())
        }
    }

    fn at(ms: i64) -> StreamItem<()> {
        StreamItem::new(StratumId(0), EventTime::from_millis(ms), ())
    }

    /// One-second tumbling windows: a skip horizon of 4 s.
    const SPEC_MS: i64 = 1_000;
    const HORIZON_MS: i64 = 4 * SPEC_MS;

    /// Cuts `times` into panes of `interval` and finishes: item by item
    /// when `chunk_lens` is empty, else in chunks of those lengths
    /// (cycled).
    fn cut(times: &[i64], interval: i64, chunk_lens: &[usize]) -> Vec<(Window, Vec<i64>)> {
        let mut driver = PaneDriver::new(Some(interval), WindowSpec::tumbling_millis(SPEC_MS));
        let mut sink = Recorder::default();
        let mut rest: Vec<_> = times.iter().map(|&ms| at(ms)).collect();
        if chunk_lens.is_empty() {
            for item in rest {
                driver.push(item, &mut sink).expect("in range");
            }
        } else {
            for &len in chunk_lens.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let tail = rest.split_off(len.min(rest.len()));
                let chunk = std::mem::replace(&mut rest, tail);
                driver.push_chunk(chunk, &mut sink).expect("in range");
            }
        }
        driver.finish(&mut sink).expect("recorder never fails");
        assert!(sink.open.is_empty(), "finish left items unclosed");
        sink.panes
    }

    #[test]
    fn empty_input_yields_no_pane() {
        assert!(cut(&[], 100, &[]).is_empty());
        let mut driver = PaneDriver::new(Some(100), WindowSpec::tumbling_millis(SPEC_MS));
        let mut sink = Recorder::default();
        driver.push_chunk(Vec::new(), &mut sink).expect("no-op");
        driver.finish(&mut sink).expect("no-op");
        assert!(sink.panes.is_empty());
    }

    #[test]
    fn quiet_intervals_become_empty_panes_and_trailing_ones_none() {
        let panes = cut(&[0, 2_500], 1_000, &[]);
        assert_eq!(panes.len(), 3);
        assert_eq!(panes[0].1, vec![0]);
        assert!(panes[1].1.is_empty());
        assert_eq!(panes[2].1, vec![2_500]);
        assert_eq!(panes[2].0.end, EventTime::from_millis(3_000));
    }

    #[test]
    fn first_pane_aligns_to_the_interval_grid() {
        let panes = cut(&[1_250, 1_400], 500, &[]);
        assert_eq!(panes[0].0.start, EventTime::from_millis(1_000));
        let negative = cut(&[-1_250], 500, &[]);
        assert_eq!(negative[0].0.start, EventTime::from_millis(-1_500));
    }

    #[test]
    #[should_panic(expected = "pane interval must be positive")]
    fn zero_interval_rejected() {
        let _ = PaneDriver::new(Some(0), WindowSpec::tumbling_millis(SPEC_MS));
    }

    #[test]
    fn a_gap_past_the_horizon_is_jumped_not_walked() {
        // Horizon 4 s at 1 s panes: a 5 s gap between pane ends is walked
        // one empty pane at a time, anything longer costs a single close.
        let walked = cut(&[0, 5_500], 1_000, &[]);
        assert_eq!(walked.len(), 6);
        let jumped = cut(&[0, 6_500], 1_000, &[]);
        assert_eq!(jumped.len(), 2);
        assert_eq!(jumped[1].0.start, EventTime::from_millis(6_000));
        // Ends of the representable range: still one close, no overflow.
        let far = cut(
            &[-5_000_000_000_000_000_000, 5_000_000_000_000_000_000],
            1_000,
            &[],
        );
        assert_eq!(far.len(), 2);
    }

    #[test]
    fn unrepresentable_times_are_refused_and_change_nothing() {
        let mut driver = PaneDriver::new(Some(1_000), WindowSpec::tumbling_millis(SPEC_MS));
        let mut sink = Recorder::default();
        for ms in [i64::MIN, i64::MIN + 10, i64::MAX] {
            let err = driver.push(at(ms), &mut sink).unwrap_err();
            assert!(matches!(err, SaError::InvalidConfig(_)), "{err}");
            assert_eq!(driver.start(), None, "a refused item opened a pane");
        }
        driver.push(at(100), &mut sink).expect("in range");
        // Refused mid-stream, per item and as the tail of a chunk: the
        // open pane stays open and un-closed, the chunk's head un-fed.
        assert!(driver.push(at(i64::MAX - 5), &mut sink).is_err());
        assert!(driver
            .push_chunk(vec![at(200), at(i64::MAX)], &mut sink)
            .is_err());
        assert_eq!(driver.start(), Some(0));
        assert!(sink.panes.is_empty());
        assert_eq!(sink.open, vec![100]);
        // Later in-range items are still accepted.
        driver.push(at(1_100), &mut sink).expect("in range");
        assert_eq!(sink.panes.len(), 1);
    }

    #[test]
    fn the_default_interval_tiles_the_window_and_others_must_divide_it() {
        assert_eq!(
            window_tile_ms(WindowSpec::sliding_millis(2_000, 1_000)),
            1_000
        );
        assert_eq!(
            window_tile_ms(WindowSpec::sliding_millis(2_500, 1_000)),
            500
        );
        assert_eq!(window_tile_ms(WindowSpec::tumbling_millis(700)), 700);
        let spec = WindowSpec::sliding_millis(2_500, 1_000);
        let mut sink = Recorder::default();
        let mut default = PaneDriver::new(None, spec);
        default.push(at(1_700), &mut sink).expect("tiles");
        assert_eq!(default.start(), Some(1_500));
        PaneDriver::new(Some(250), spec)
            .push(at(0), &mut sink)
            .expect("250 divides 500");
        // 1 000 divides the slide but not the size: refused, per item and
        // per chunk, with nothing opened.
        let mut untiled = PaneDriver::new(Some(1_000), spec);
        for _ in 0..2 {
            let err = untiled.push(at(0), &mut sink).unwrap_err();
            assert!(matches!(err, SaError::InvalidConfig(_)), "{err}");
            assert!(untiled.push_chunk(vec![at(0)], &mut sink).is_err());
            assert_eq!(untiled.start(), None);
        }
    }

    #[test]
    fn restore_accepts_only_panes_of_its_own_grid() {
        let mut driver = PaneDriver::new(Some(500), WindowSpec::tumbling_millis(SPEC_MS));
        driver.restore_start(Some(1_500)).expect("on the grid");
        assert_eq!(driver.start(), Some(1_500));
        let mut sink = Recorder::default();
        driver.push(at(2_100), &mut sink).expect("in range");
        assert_eq!(sink.panes[0].0.end, EventTime::from_millis(2_000));
        for bad in [1_250, i64::MAX - 7, i64::MIN] {
            let err = driver.restore_start(Some(bad)).unwrap_err();
            assert!(matches!(err, SaError::Checkpoint(_)), "{err}");
        }
        driver.restore_start(None).expect("nothing open");
        assert_eq!(driver.start(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Panes tile the stream — interval-long, contiguous except across
        /// a jumped gap, every item inside its pane, none lost — and chunk
        /// boundaries are invisible: any chunking of the same stream gives
        /// the identical `(pane, items)` sequence as per-item pushes.
        #[test]
        fn panes_tile_the_stream_and_chunking_is_invisible(
            gaps in proptest::collection::vec((0i64..600, 0u8..16), 1..300),
            divisor in 0usize..16,
            chunk_lens in proptest::collection::vec(1usize..40, 1..8),
        ) {
            use proptest::prelude::*;
            // Any interval that tiles the 1 s window.
            let interval =
                [1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 125, 200, 250, 500, 1_000][divisor];
            // Cumulative gaps, one in sixteen stretched past the horizon.
            let mut t = -3_000i64;
            let times: Vec<i64> = gaps
                .iter()
                .map(|&(gap, stretch)| {
                    t += if stretch == 0 { gap * 100 } else { gap };
                    t
                })
                .collect();
            let panes = cut(&times, interval, &[]);
            for (pane, items) in &panes {
                prop_assert_eq!(pane.len_millis(), interval);
                prop_assert_eq!(pane.start.as_millis().rem_euclid(interval), 0);
                for &ms in items {
                    prop_assert!(pane.contains(EventTime::from_millis(ms)));
                }
            }
            for pair in panes.windows(2) {
                let gap = pair[1].0.start.as_millis() - pair[0].0.end.as_millis();
                // A jump lands on the pane of the item that caused it.
                prop_assert!(gap == 0 || (gap > HORIZON_MS && !pair[1].1.is_empty()));
            }
            let fed: Vec<i64> = panes.iter().flat_map(|(_, items)| items.clone()).collect();
            prop_assert_eq!(&fed, &times);
            prop_assert!(panes.last().is_some_and(|(_, items)| !items.is_empty()));
            prop_assert_eq!(cut(&times, interval, &chunk_lens), panes);
        }
    }

    const BARRIER_SHARDS: usize = 3;
    const BARRIER_PANE_MS: i64 = 100;

    /// A three-shard barrier over 100 ms panes armed with `directive`. A
    /// fixed per-stratum budget's merge draws from the RNG, so the bits of
    /// its panes depend on the merge seed.
    fn barrier(directive: SizingDirective) -> PaneBarrier<f64> {
        let mut shards = ShardSet::new(BARRIER_SHARDS, RunSeed::new(9), Arc::new(|v: &f64| *v));
        let _ = shards.rearm(directive, 0);
        PaneBarrier::new(shards, BARRIER_PANE_MS)
    }

    /// Shard `shard`'s part of pane `pane`: two strata with full
    /// 4-item reservoirs, holding `17 + 2·pane + 6·shard` items in all.
    fn part(pane: u8, shard: usize) -> WorkerPane<f64> {
        let sample = (0..2u32)
            .map(|stratum| {
                let base = f64::from(pane) * 100.0 + shard as f64 * 10.0 + f64::from(stratum);
                let population = 8 + u64::from(pane) + shard as u64 * 3 + u64::from(stratum);
                let items = (0..4).map(|i| base + f64::from(i)).collect();
                sa_types::StratumSample::new(StratumId(stratum), items, population, 4)
            })
            .collect();
        WorkerPane::Sampled(sample)
    }

    fn never(_: i64) -> bool {
        false
    }

    fn none_gone(_: usize) -> bool {
        false
    }

    /// Everything a released pane reports, bits included.
    fn released(pane: &MergedPane) -> String {
        format!("{pane:?}")
    }

    /// Offers `offers` in the order given, taking every pane the barrier
    /// releases after each offer.
    fn release_all(offers: &[(u8, usize)]) -> Vec<String> {
        let mut barrier = barrier(SizingDirective::PerStratum(4));
        let mut out = Vec::new();
        for &(pane, shard) in offers {
            let start = i64::from(pane) * BARRIER_PANE_MS;
            assert_eq!(barrier.offer(shard, start, part(pane, shard)), Offer::Held);
            while let Some(merged) = barrier.take_ready(never, none_gone) {
                assert!(merged.missing.is_empty() && merged.lost == 0);
                out.push(released(&merged));
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Offers in any interleaving across shards, each shard offering
        /// its panes in order, release the same panes, in pane order, with
        /// the same bits.
        #[test]
        fn barrier_offers_in_any_order_release_the_same_bits(
            panes in 1u8..7,
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 18..19),
        ) {
            use proptest::prelude::*;
            let mut offers: Vec<(u8, usize)> = (0..panes)
                .flat_map(|pane| (0..BARRIER_SHARDS).map(move |shard| (pane, shard)))
                .collect();
            let in_order = release_all(&offers);
            prop_assert_eq!(in_order.len(), usize::from(panes));
            offers.sort_by_key(|&(pane, shard)| keys[usize::from(pane) * BARRIER_SHARDS + shard]);
            // Keep the random interleaving of shards, but let each shard
            // offer its own panes in order, as a FIFO channel delivers them.
            let mut next = [0u8; BARRIER_SHARDS];
            for (pane, shard) in &mut offers {
                *pane = next[*shard];
                next[*shard] += 1;
            }
            prop_assert_eq!(release_all(&offers), in_order);
        }
    }

    #[test]
    fn barrier_merges_in_shard_order_seeded_by_pane_start() {
        let mut barrier = barrier(SizingDirective::PerStratum(4));
        for shard in (0..BARRIER_SHARDS).rev() {
            barrier.offer(shard, 200, part(2, shard));
        }
        let merged = barrier
            .take_ready(never, none_gone)
            .expect("every shard offered");
        assert_eq!(
            merged.window,
            Window::new(EventTime::from_millis(200), EventTime::from_millis(300))
        );
        let parts = (0..BARRIER_SHARDS).map(|shard| part(2, shard)).collect();
        let mut rng = SmallRng::seed_from_u64(pane_merge_seed(RunSeed::new(9), 200));
        let oracle = barrier.shards.merge_panes(parts, &mut rng);
        assert_eq!(format!("{:?}", merged.payload), format!("{oracle:?}"));
        assert_eq!(
            merged.payload.sampled(),
            8,
            "the budget binds, so the merge drew"
        );
    }

    #[test]
    fn barrier_excuse_releases_exactly_the_panes_it_covers() {
        let mut barrier = barrier(SizingDirective::PerStratum(4));
        for pane in 0..3u8 {
            for shard in 0..2 {
                barrier.offer(shard, i64::from(pane) * BARRIER_PANE_MS, part(pane, shard));
            }
        }
        assert!(barrier.take_ready(never, none_gone).is_none());
        // Through 200 covers the panes ending at 100 and 200, not [200, 300).
        barrier.excuse(2, 200);
        let starts: Vec<i64> = std::iter::from_fn(|| barrier.take_ready(never, none_gone))
            .map(|merged| {
                // Lossless: nothing missing, nothing widened.
                assert!(merged.missing.is_empty() && merged.lost == 0);
                let pane = (merged.window.start.as_millis() / BARRIER_PANE_MS) as u64;
                assert_eq!(merged.payload.population(), 40 + 4 * pane);
                merged.window.start.as_millis()
            })
            .collect();
        assert_eq!(starts, [0, 100]);
        barrier.excuse(2, 299);
        assert!(barrier.take_ready(never, none_gone).is_none());
        barrier.excuse(2, 300);
        let last = barrier
            .take_ready(never, none_gone)
            .expect("excused through its end");
        assert_eq!(last.window.start.as_millis(), 200);
    }

    #[test]
    fn barrier_degraded_pane_reports_lost_mass_and_missing_shards() {
        let mut barrier = barrier(SizingDirective::PerStratum(4));
        barrier.offer(0, 0, part(0, 0)); // 17 items
        barrier.offer(2, 0, part(0, 2)); // 29 items
        barrier.offer(0, 100, part(1, 0));
        barrier.offer(2, 100, part(1, 2));
        assert!(
            barrier.take_ready(never, none_gone).is_none(),
            "shard 1 may still offer"
        );
        let timed_out = barrier
            .take_ready(|start| start == 0, none_gone)
            .expect("timed out");
        assert_eq!(timed_out.missing, [1]);
        // The present shards' mean population, once per missing shard.
        assert_eq!(timed_out.lost, (17 + 29) / 2);
        assert_eq!(timed_out.payload.population(), 17 + 29 + 23);
        assert!(barrier.take_ready(|start| start == 0, none_gone).is_none());
        // A pane whose only gap is a gone shard merges degraded untimed.
        let gone = barrier
            .take_ready(never, |shard| shard == 1)
            .expect("only gone is missing");
        assert_eq!((gone.missing, gone.lost), (vec![1], (19 + 31) / 2));
    }

    #[test]
    fn barrier_fills_an_exact_runs_gaps_with_empty_statistics() {
        let mut barrier = barrier(SizingDirective::Everything);
        barrier.offer(1, 0, WorkerPane::Stats(exact_stats(0, &[1.0, 2.0, 3.0])));
        let merged = barrier.take_ready(|_| true, none_gone).expect("timed out");
        assert_eq!(merged.missing, [0, 2]);
        assert_eq!(merged.lost, 6);
        assert_eq!(merged.payload.population(), 9);
    }

    #[test]
    fn barrier_reports_stale_and_duplicate_offers_and_never_merges_them() {
        let mut barrier = barrier(SizingDirective::PerStratum(4));
        assert_eq!(barrier.offer(0, 0, part(0, 0)), Offer::Held);
        assert_eq!(barrier.offer(0, 0, part(5, 0)), Offer::Duplicate);
        barrier.offer(1, 0, part(0, 1));
        barrier.offer(2, 0, part(0, 2));
        let merged = barrier
            .take_ready(never, none_gone)
            .expect("every shard offered");
        assert_eq!(
            merged.payload.population(),
            17 + 23 + 29,
            "the first offer counts"
        );
        assert_eq!(barrier.watermark(), Some(EventTime::from_millis(100)));
        assert_eq!(barrier.offer(1, 0, part(0, 1)), Offer::Stale);
        assert!(
            barrier.take_ready(|_| true, |_| true).is_none(),
            "a stale part opens no pane"
        );
    }

    #[test]
    fn empty_sample_union_is_consistent() {
        // StratifiedSample::union with an empty side must keep counters
        // coherent (exercised by every idle batched-engine worker at
        // interval close).
        let mut a: StratifiedSample<f64> = StratifiedSample::new();
        let b: StratifiedSample<f64> = StratifiedSample::new();
        a.union(b);
        assert_eq!(a.total_population(), 0);
        assert_eq!(a.total_sampled(), 0);
    }
}
