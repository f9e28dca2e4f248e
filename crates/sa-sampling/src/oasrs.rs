//! Online Adaptive Stratified Reservoir Sampling — OASRS (Algorithm 3 and
//! §3.2 of the paper).
//!
//! OASRS combines stratified and reservoir sampling without the drawbacks of
//! either: it never overlooks a sub-stream regardless of popularity, needs no
//! advance knowledge of sub-stream statistics, and runs in one pass with no
//! synchronization between workers.
//!
//! Per time interval the sampler maintains, for every sub-stream `S_i` seen
//! so far, a [`Reservoir`] of size `N_i` and a counter `C_i`. At the end of
//! the interval each stratum yields its `Y_i = min(C_i, N_i)` sampled items
//! and the weight `W_i = max(C_i / N_i, 1)` of Equation 1, packaged as a
//! [`StratifiedSample`] for the estimators.
//!
//! # What carries across an interval boundary
//!
//! The boundary re-arms every stratum but rebuilds nothing it can keep:
//!
//! * **carried:** the flat stratum table (every slot empty, cut to the
//!   highest stratum live in the interval just closed), the emptied item
//!   buffer of each stratum live in that interval — parked at the
//!   stratum's own index and handed back when that stratum is next
//!   admitted — and the capacity plan of
//!   [`SizingPolicy::FractionOfPrevious`], a flat vector indexed like the
//!   table in which 0 means "no plan";
//! * **not carried:** held items, arrival counters and skip-ahead jump
//!   state (every stratum starts its next interval as a fresh reservoir),
//!   and the buffers of strata idle for a whole interval, which are freed.
//!
//! So the kept table and buffers are bounded by what the last interval
//! used, not by every id ever seen. Like the map it replaces, the plan
//! keeps an entry for every stratum ever planned: at most 2^20 entries,
//! the bound on stratum ids.
//!
//! The carried state holds no items and drives no random draw, so it is
//! invisible: the wire format omits the parked buffers and the idle table
//! length, and a decoded sampler continues exactly like the original.
//! [`OasrsSampler::finish_interval_with`] closes an interval by *lending*
//! each stratum's sample, so a caller that folds samples into statistics
//! frees and reallocates no item buffer at all;
//! [`OasrsSampler::finish_interval`] hands the items out as an owned
//! [`StratifiedSample`] instead.

use crate::reservoir::{Reservoir, INITIAL_RESERVE};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_types::{StratifiedSample, StratumId, StratumSample, StreamItem};

/// How per-stratum reservoir capacities `N_i` are chosen (the paper's
/// "adaptive cost function considering the specified query budget", §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingPolicy {
    /// Every stratum gets a reservoir of exactly this many slots. This is
    /// the paper's headline configuration: "a sample of a fixed size for
    /// each sub-stream" (§5.2).
    PerStratum(usize),
    /// A total budget split evenly across the strata seen so far. When a new
    /// stratum appears mid-interval, existing reservoirs shrink (by uniform
    /// random eviction, which preserves uniformity) so the total stays
    /// within budget.
    SharedTotal(usize),
    /// Adaptive fraction targeting: each stratum's capacity for the *next*
    /// interval is `ceil(fraction × C_i)` of the interval that just ended,
    /// starting from `initial` for strata never seen before. This is how a
    /// sampling-fraction budget maps onto size-based reservoirs while
    /// tracking fluctuating arrival rates.
    FractionOfPrevious {
        /// Target sampling fraction in `(0, 1]`.
        fraction: f64,
        /// Capacity used for a stratum's first interval.
        initial: usize,
    },
}

impl SizingPolicy {
    /// Whether a sampler can run this policy: a positive budget or initial
    /// capacity, and a fraction in `(0, 1]`. Construction asserts it; the
    /// wire decoder refuses a payload that fails it.
    pub(crate) fn is_valid(&self) -> bool {
        match *self {
            SizingPolicy::PerStratum(n) | SizingPolicy::SharedTotal(n) => n > 0,
            SizingPolicy::FractionOfPrevious { fraction, initial } => {
                fraction > 0.0 && fraction <= 1.0 && initial > 0
            }
        }
    }
}

/// The OASRS sampler for one worker over one (or many) time intervals.
///
/// Call [`observe`](OasrsSampler::observe) for every arriving item and
/// [`finish_interval`](OasrsSampler::finish_interval) at each interval
/// boundary (batch or window slide); the sampler re-arms itself for the next
/// interval, carrying capacity decisions forward per the sizing policy
/// (see the module docs for what else carries over).
///
/// # Example
///
/// ```
/// use sa_sampling::{OasrsSampler, SizingPolicy};
/// use sa_types::StratumId;
///
/// let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(3), 42);
/// // Sub-stream 0 sends 6 items, sub-stream 1 sends 2.
/// for v in 0..6 {
///     oasrs.observe(StratumId(0), v as f64);
/// }
/// for v in 0..2 {
///     oasrs.observe(StratumId(1), v as f64);
/// }
/// let sample = oasrs.finish_interval();
/// let s0 = sample.stratum(StratumId(0)).unwrap();
/// let s1 = sample.stratum(StratumId(1)).unwrap();
/// assert_eq!((s0.sample_size(), s0.weight()), (3, 2.0)); // C=6 > N=3 → W=C/N
/// assert_eq!((s1.sample_size(), s1.weight()), (2, 1.0)); // C=2 ≤ N=3 → W=1
/// ```
#[derive(Debug, Clone)]
pub struct OasrsSampler<V> {
    pub(crate) sizing: SizingPolicy,
    /// Per-stratum reservoirs, indexed by stratum id. Sampling sits on the
    /// hot receiving path, so lookup must be an array index: stratum ids
    /// are expected to be small and dense (the aggregator assigns them per
    /// source). `None` marks ids not seen this interval; the table keeps
    /// its allocation across intervals (see `close`).
    pub(crate) strata: Vec<Option<Reservoir<V>>>,
    pub(crate) active: usize,
    /// Capacities carried into the next interval (FractionOfPrevious),
    /// indexed like `strata`; 0 means no plan.
    pub(crate) next_capacity: Vec<usize>,
    /// Emptied item buffers parked at their stratum's index by a lending
    /// close, handed back when that stratum is next admitted.
    pub(crate) parked: Vec<Vec<V>>,
    pub(crate) rng: SmallRng,
}

/// Equality of the observable state — sizing, live strata, capacity plan
/// and RNG. The idle table length and the parked buffers carry no state,
/// so a sampler equals its decoded copy, which has neither.
impl<V: PartialEq> PartialEq for OasrsSampler<V> {
    fn eq(&self, other: &Self) -> bool {
        self.sizing == other.sizing
            && self.active == other.active
            && self.rng == other.rng
            && self.live().eq(other.live())
            && self.plan().eq(other.plan())
    }
}

/// Guard against sparse stratum ids blowing up the flat table.
pub(crate) const MAX_STRATUM_ID: usize = 1 << 20;

impl<V> OasrsSampler<V> {
    /// Creates a sampler with the given sizing policy and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the policy's budget, fraction or initial capacity is
    /// invalid (zero budget, fraction outside `(0, 1]`).
    pub fn new(sizing: SizingPolicy, seed: u64) -> Self {
        assert!(
            sizing.is_valid(),
            "invalid sizing policy {sizing:?}: budgets and capacities must be positive, \
             and the sampling fraction must be in (0, 1]"
        );
        OasrsSampler {
            sizing,
            strata: Vec::new(),
            active: 0,
            next_capacity: Vec::new(),
            parked: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates the sampler for worker `worker` of `num_workers` in the
    /// paper's distributed execution (§3.2): per-stratum capacities become
    /// `ceil(N_i / w)` and the RNG is decorrelated per worker. Union the
    /// per-worker results with [`StratifiedSample::union`].
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`, `worker >= num_workers`, or the policy
    /// is invalid.
    pub fn for_worker(sizing: SizingPolicy, seed: u64, worker: usize, num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        assert!(worker < num_workers, "worker index out of range");
        let shard = |n: usize| n.div_ceil(num_workers);
        let sharded = match sizing {
            SizingPolicy::PerStratum(n) => SizingPolicy::PerStratum(shard(n).max(1)),
            SizingPolicy::SharedTotal(n) => SizingPolicy::SharedTotal(shard(n).max(1)),
            SizingPolicy::FractionOfPrevious { fraction, initial } => {
                SizingPolicy::FractionOfPrevious {
                    fraction,
                    initial: shard(initial).max(1),
                }
            }
        };
        // Per-worker seeds derive through the run-wide rule so workers draw
        // independent streams and runs reproduce across engines.
        let worker_seed = sa_types::RunSeed::new(seed).for_worker(worker).value();
        Self::new(sharded, worker_seed)
    }

    /// The sizing policy in force.
    pub fn sizing(&self) -> SizingPolicy {
        self.sizing
    }

    /// Number of distinct strata observed in the current interval.
    pub fn num_strata(&self) -> usize {
        self.active
    }

    /// Total items offered in the current interval (`ΣC_i`).
    pub fn total_seen(&self) -> u64 {
        self.strata.iter().flatten().map(Reservoir::seen).sum()
    }

    /// Total items currently held (`ΣY_i`).
    pub fn total_held(&self) -> u64 {
        self.strata.iter().flatten().map(|r| r.len() as u64).sum()
    }

    /// The live strata of the current interval with their indices, in
    /// ascending order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (usize, &Reservoir<V>)> {
        self.strata
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| Some((idx, slot.as_ref()?)))
    }

    /// The planned `(stratum index, capacity)` pairs, in ascending order.
    pub(crate) fn plan(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.next_capacity
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, cap)| cap > 0)
    }

    /// Capacity a brand-new stratum would receive right now, given that it
    /// will make `|S| = active` strata in total.
    fn capacity_for_new_stratum(&self, idx: usize, active: usize) -> usize {
        match self.sizing {
            SizingPolicy::PerStratum(n) => n,
            SizingPolicy::SharedTotal(total) => (total / active).max(1),
            SizingPolicy::FractionOfPrevious { initial, .. } => self
                .next_capacity
                .get(idx)
                .copied()
                .filter(|&cap| cap > 0)
                .unwrap_or(initial)
                .max(1),
        }
    }

    /// Registers a stratum seen for the first time this interval (the cold
    /// path of [`observe`](OasrsSampler::observe)).
    #[cold]
    fn admit_stratum(&mut self, stratum: StratumId) {
        let idx = stratum.index();
        assert!(idx < MAX_STRATUM_ID, "stratum id {idx} too sparse");
        if idx >= self.strata.len() {
            self.strata.resize_with(idx + 1, || None);
        }
        self.active += 1;
        let cap = self.capacity_for_new_stratum(idx, self.active);
        let buffer = self.parked.get_mut(idx).map(std::mem::take);
        self.strata[idx] = Some(Reservoir::with_buffer(cap, buffer.unwrap_or_default()));
        if let SizingPolicy::SharedTotal(total) = self.sizing {
            // Rebalance: all strata share the budget evenly.
            let per = (total / self.active).max(1);
            for r in self.strata.iter_mut().flatten() {
                if r.capacity() > per {
                    r.shrink_to(per, &mut self.rng);
                } else {
                    r.grow_to(per);
                }
            }
        }
    }

    /// Offers one item to the sampler (the inner loop of Algorithm 3).
    ///
    /// Unknown strata are registered on first sight — OASRS needs no advance
    /// knowledge of the sub-stream population.
    #[inline]
    pub fn observe(&mut self, stratum: StratumId, value: V) {
        let idx = stratum.index();
        if idx >= self.strata.len() || self.strata[idx].is_none() {
            self.admit_stratum(stratum);
        }
        let r = self.strata[idx].as_mut().expect("stratum admitted");
        r.observe(value, &mut self.rng);
    }

    /// Convenience: offers a [`StreamItem`], routing by its stratum.
    pub fn observe_item(&mut self, item: StreamItem<V>) {
        self.observe(item.stratum, item.value);
    }

    /// Offers a whole batch of items, hoisting the per-item stratum
    /// lookup/admission out of the inner loop: consecutive items sharing
    /// a stratum form a *run*, and each run goes through one stratum
    /// lookup plus one [`Reservoir::observe_run`] call, which consumes
    /// skipped gaps with a counter bump and zero RNG draws. Accepted
    /// items are moved out of the batch; skipped items are dropped
    /// without being touched. The batch is *drained*: it comes back empty
    /// with its allocation intact, so callers on a hot path can recycle
    /// the buffer instead of allocating a fresh one per chunk.
    ///
    /// The RNG draw order is identical to calling
    /// [`observe_item`](OasrsSampler::observe_item) once per item, so
    /// batch and per-item observation produce bit-for-bit identical
    /// sampler state from the same seed — chunk boundaries are invisible
    /// to the sample.
    pub fn observe_batch(&mut self, items: &mut Vec<StreamItem<V>>) {
        let mut iter = items.drain(..);
        while let Some(first) = iter.next() {
            let stratum = first.stratum;
            // Length of the run of same-stratum followers still in the
            // iterator (the run itself is `tail + 1` items with `first`).
            let tail = iter
                .as_slice()
                .iter()
                .take_while(|it| it.stratum == stratum)
                .count();
            let idx = stratum.index();
            if idx >= self.strata.len() || self.strata[idx].is_none() {
                self.admit_stratum(stratum);
            }
            let r = self.strata[idx].as_mut().expect("stratum admitted");
            let mut first = Some(first);
            // Followers already pulled out of `iter` for this run.
            let mut consumed = 0usize;
            r.observe_run((tail + 1) as u64, &mut self.rng, |off| {
                if off == 0 {
                    first.take().expect("offset 0 visited at most once").value
                } else {
                    let follower = off as usize - 1;
                    let item = iter
                        .nth(follower - consumed)
                        .expect("accepted offset within run");
                    consumed = follower + 1;
                    item.value
                }
            });
            if consumed < tail {
                // Drop the skipped tail of the run in one jump.
                iter.nth(tail - consumed - 1);
            }
        }
    }

    /// Ends the current time interval: returns the weighted
    /// [`StratifiedSample`] and re-arms the sampler for the next interval.
    ///
    /// Under [`SizingPolicy::FractionOfPrevious`] the realized per-stratum
    /// counters set the next interval's capacities, which is what makes the
    /// sampler *adaptive* to fluctuating arrival rates.
    pub fn finish_interval(&mut self) -> StratifiedSample<V> {
        let mut out = StratifiedSample::new();
        self.close(|stratum, items, seen, capacity| {
            out.push(StratumSample::new(stratum, items, seen, capacity));
            None
        });
        out
    }

    /// Ends the current time interval like
    /// [`finish_interval`](OasrsSampler::finish_interval), but *lends*
    /// each stratum's sample instead of handing it out:
    /// `lend(stratum, items, seen, capacity)` is called once per stratum
    /// seen this interval, in ascending stratum order, with exactly the
    /// parts `finish_interval` would have packed into its
    /// [`StratumSample`]. The item buffers stay with the sampler, emptied
    /// and parked for their strata's next interval, so a caller that folds
    /// samples into statistics allocates and frees no item buffer.
    pub fn finish_interval_with<F: FnMut(StratumId, &[V], u64, usize)>(&mut self, mut lend: F) {
        self.close(|stratum, mut items, seen, capacity| {
            lend(stratum, &items, seen, capacity);
            // A buffer that grew far past what its stratum held (one burst
            // pane) shrinks back rather than staying at its peak.
            let keep = 2 * items.len().max(INITIAL_RESERVE);
            items.clear();
            items.shrink_to(keep);
            Some(items)
        });
    }

    /// Both closes: takes every live reservoir in ascending stratum order,
    /// records its next capacity, hands `each` its parts, and parks the
    /// buffer `each` gives back (if any) at the stratum's index.
    ///
    /// Only what this interval used is kept: an idle stratum's parked
    /// buffer is freed, and the table and the parked slots are cut to the
    /// highest live stratum (their allocations to twice that), so ids that
    /// never come back hold no memory and cost later closes nothing.
    fn close(&mut self, mut each: impl FnMut(StratumId, Vec<V>, u64, usize) -> Option<Vec<V>>) {
        self.active = 0;
        let fraction = match self.sizing {
            SizingPolicy::FractionOfPrevious { fraction, .. } => Some(fraction),
            _ => None,
        };
        if fraction.is_some() && self.next_capacity.len() < self.strata.len() {
            self.next_capacity.resize(self.strata.len(), 0);
        }
        let mut live_end = 0;
        for (idx, slot) in self.strata.iter_mut().enumerate() {
            let Some(reservoir) = slot.take() else {
                if let Some(buffer) = self.parked.get_mut(idx) {
                    *buffer = Vec::new();
                }
                continue;
            };
            live_end = idx + 1;
            let capacity = reservoir.capacity();
            let (items, seen) = reservoir.into_parts();
            if let Some(fraction) = fraction {
                self.next_capacity[idx] = ((seen as f64 * fraction).ceil() as usize).max(1);
            }
            if let Some(buffer) = each(StratumId(idx as u32), items, seen, capacity) {
                if idx >= self.parked.len() {
                    self.parked.resize_with(idx + 1, Vec::new);
                }
                self.parked[idx] = buffer;
            }
        }
        self.strata.truncate(live_end);
        self.strata.shrink_to(2 * live_end);
        self.parked.truncate(live_end);
        self.parked.shrink_to(2 * live_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(oasrs: &mut OasrsSampler<f64>, stratum: u32, n: usize) {
        for v in 0..n {
            oasrs.observe(StratumId(stratum), v as f64);
        }
    }

    /// Chunk boundaries and run grouping must be invisible: feeding the
    /// same interleaved multi-stratum stream through `observe_batch` in
    /// any chunking produces bit-for-bit the per-item sampler state.
    #[test]
    fn observe_batch_is_bit_identical_to_per_item() {
        let items: Vec<StreamItem<f64>> = (0..20_000u32)
            .map(|i| {
                // Bursty stratum pattern: long same-stratum runs with
                // occasional singletons, so both the run fast path and the
                // run-of-one path are exercised.
                let stratum = if i % 97 == 0 { 3 } else { (i / 64) % 3 };
                StreamItem::new(
                    StratumId(stratum),
                    sa_types::EventTime::from_millis(i as i64),
                    f64::from(i),
                )
            })
            .collect();
        let mut per_item = OasrsSampler::new(SizingPolicy::PerStratum(50), 77);
        for item in items.clone() {
            per_item.observe_item(item);
        }
        for chunk in [1usize, 13, 256, 20_000] {
            let mut batched = OasrsSampler::new(SizingPolicy::PerStratum(50), 77);
            for run in items.chunks(chunk) {
                batched.observe_batch(&mut run.to_vec());
            }
            assert_eq!(
                batched.finish_interval(),
                per_item.clone().finish_interval(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn matches_figure_two_worked_example() {
        // Figure 2 of the paper: reservoirs of size 3; C1=6, C2=4, C3=2
        // → W1 = 6/3, W2 = 4/3, W3 = 1.
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(3), 1);
        feed(&mut oasrs, 1, 6);
        feed(&mut oasrs, 2, 4);
        feed(&mut oasrs, 3, 2);
        let sample = oasrs.finish_interval();
        let w = |id: u32| sample.stratum(StratumId(id)).unwrap().weight();
        assert_eq!(w(1), 2.0);
        assert!((w(2) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(w(3), 1.0);
    }

    #[test]
    fn no_substream_is_overlooked() {
        // One stratum floods, another sends a single item; OASRS must keep
        // the minority item (the property SRS lacks, §5.4).
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(10), 2);
        feed(&mut oasrs, 0, 100_000);
        oasrs.observe(StratumId(1), 123.0);
        let sample = oasrs.finish_interval();
        let minority = sample.stratum(StratumId(1)).unwrap();
        assert_eq!(minority.items, vec![123.0]);
        assert_eq!(minority.weight(), 1.0);
    }

    #[test]
    fn counters_track_arrivals_exactly() {
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(5), 3);
        feed(&mut oasrs, 0, 17);
        feed(&mut oasrs, 1, 3);
        assert_eq!(oasrs.total_seen(), 20);
        assert_eq!(oasrs.num_strata(), 2);
        let sample = oasrs.finish_interval();
        assert_eq!(sample.stratum(StratumId(0)).unwrap().population, 17);
        assert_eq!(sample.stratum(StratumId(1)).unwrap().population, 3);
    }

    #[test]
    fn finish_interval_resets_state() {
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(4), 4);
        feed(&mut oasrs, 0, 10);
        let first = oasrs.finish_interval();
        assert_eq!(first.total_population(), 10);
        assert_eq!(oasrs.num_strata(), 0);
        feed(&mut oasrs, 0, 2);
        let second = oasrs.finish_interval();
        assert_eq!(second.total_population(), 2);
        assert_eq!(second.stratum(StratumId(0)).unwrap().sample_size(), 2);
    }

    #[test]
    fn shared_total_rebalances_on_new_strata() {
        let mut oasrs = OasrsSampler::new(SizingPolicy::SharedTotal(12), 5);
        feed(&mut oasrs, 0, 100);
        // Alone, stratum 0 gets the whole budget.
        assert_eq!(oasrs.total_held(), 12);
        feed(&mut oasrs, 1, 100);
        feed(&mut oasrs, 2, 100);
        let sample = oasrs.finish_interval();
        // Budget is now split three ways: 4 slots each.
        for id in 0..3 {
            let s = sample.stratum(StratumId(id)).unwrap();
            assert_eq!(s.capacity, 4, "stratum {id}");
            assert_eq!(s.sample_size(), 4, "stratum {id}");
        }
        assert_eq!(sample.total_sampled(), 12);
    }

    #[test]
    fn fraction_policy_adapts_capacity_to_arrivals() {
        let mut oasrs = OasrsSampler::new(
            SizingPolicy::FractionOfPrevious {
                fraction: 0.5,
                initial: 4,
            },
            6,
        );
        // First interval: capacity is the initial guess.
        feed(&mut oasrs, 0, 100);
        let first = oasrs.finish_interval();
        assert_eq!(first.stratum(StratumId(0)).unwrap().capacity, 4);
        // Second interval: capacity adapted to 50% of the observed 100.
        feed(&mut oasrs, 0, 100);
        let second = oasrs.finish_interval();
        let s = second.stratum(StratumId(0)).unwrap();
        assert_eq!(s.capacity, 50);
        assert_eq!(s.sample_size(), 50);
        assert!((s.weight() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_policy_tracks_rate_changes() {
        let mut oasrs = OasrsSampler::new(
            SizingPolicy::FractionOfPrevious {
                fraction: 0.1,
                initial: 10,
            },
            7,
        );
        feed(&mut oasrs, 0, 1_000);
        oasrs.finish_interval();
        // Arrival rate drops 10×; capacity follows on the next boundary.
        feed(&mut oasrs, 0, 100);
        let s2 = oasrs.finish_interval();
        assert_eq!(s2.stratum(StratumId(0)).unwrap().capacity, 100);
        feed(&mut oasrs, 0, 100);
        let s3 = oasrs.finish_interval();
        assert_eq!(s3.stratum(StratumId(0)).unwrap().capacity, 10);
    }

    #[test]
    fn worker_sharding_splits_capacity() {
        let a: OasrsSampler<f64> = OasrsSampler::for_worker(SizingPolicy::PerStratum(10), 9, 0, 4);
        assert_eq!(a.sizing(), SizingPolicy::PerStratum(3));
        let b: OasrsSampler<f64> = OasrsSampler::for_worker(SizingPolicy::PerStratum(10), 9, 3, 4);
        assert_eq!(b.sizing(), SizingPolicy::PerStratum(3));
    }

    #[test]
    fn distributed_union_reconstructs_global_sample() {
        // Two workers each see half of a sub-stream; the union of their
        // samples must carry the full counter so the weight is correct.
        let sizing = SizingPolicy::PerStratum(10);
        let mut w0 = OasrsSampler::for_worker(sizing, 11, 0, 2);
        let mut w1 = OasrsSampler::for_worker(sizing, 11, 1, 2);
        feed(&mut w0, 0, 50);
        feed(&mut w1, 0, 50);
        let mut global = w0.finish_interval();
        global.union(w1.finish_interval());
        let s = global.stratum(StratumId(0)).unwrap();
        assert_eq!(s.population, 100);
        assert_eq!(s.sample_size(), 10); // 5 + 5
        assert_eq!(s.capacity, 10);
        assert!((s.weight() - 10.0).abs() < 1e-12);
    }

    /// Shards at full capacity merge their finished samples through
    /// `merge_all_stratified`, the path the sharded engine and the
    /// distributed coordinator run.
    fn merge_shards(shards: [OasrsSampler<f64>; 2]) -> StratifiedSample<f64> {
        let mut rng = SmallRng::seed_from_u64(99);
        crate::merge_all_stratified(shards.map(|mut s| s.finish_interval()), &mut rng)
    }

    #[test]
    fn merge_sums_counters_and_keeps_one_budget() {
        // Two shards at full capacity 3 over one stratum: the merged sample
        // must represent all 10 arrivals with a single 3-slot reservoir,
        // giving the Equation-1 weight 10/3.
        let mut a = OasrsSampler::new(SizingPolicy::PerStratum(3), 21);
        let mut b = OasrsSampler::new(SizingPolicy::PerStratum(3), 22);
        feed(&mut a, 0, 6);
        feed(&mut b, 0, 4);
        let sample = merge_shards([a, b]);
        let s = sample.stratum(StratumId(0)).unwrap();
        assert_eq!(s.population, 10);
        assert_eq!(s.sample_size(), 3);
        assert_eq!(s.capacity, 3);
        assert!((s.weight() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adopts_strata_only_the_other_shard_saw() {
        let mut a = OasrsSampler::new(SizingPolicy::PerStratum(4), 23);
        let mut b = OasrsSampler::new(SizingPolicy::PerStratum(4), 24);
        feed(&mut a, 0, 5);
        feed(&mut b, 7, 2);
        let sample = merge_shards([a, b]);
        assert_eq!(sample.num_strata(), 2);
        assert_eq!(sample.stratum(StratumId(7)).unwrap().sample_size(), 2);
        assert_eq!(sample.stratum(StratumId(0)).unwrap().population, 5);
    }

    #[test]
    fn observe_item_routes_by_stratum() {
        use sa_types::EventTime;
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(2), 12);
        oasrs.observe_item(StreamItem::new(
            StratumId(3),
            EventTime::from_millis(0),
            1.5,
        ));
        let sample = oasrs.finish_interval();
        assert_eq!(sample.stratum(StratumId(3)).unwrap().items, vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "sampling fraction must be in (0, 1]")]
    fn invalid_fraction_rejected() {
        let _ = OasrsSampler::<f64>::new(
            SizingPolicy::FractionOfPrevious {
                fraction: 1.5,
                initial: 1,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn bad_worker_index_rejected() {
        let _ = OasrsSampler::<f64>::for_worker(SizingPolicy::PerStratum(1), 0, 2, 2);
    }

    /// Within one stratum, OASRS selection must stay uniform (it is plain
    /// reservoir sampling per stratum).
    #[test]
    fn per_stratum_uniformity() {
        const TRIALS: usize = 10_000;
        let mut counts = [0u32; 12];
        for t in 0..TRIALS {
            let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(4), t as u64);
            for v in 0..12 {
                oasrs.observe(StratumId(0), v as f64);
            }
            let sample = oasrs.finish_interval();
            for &v in &sample.stratum(StratumId(0)).unwrap().items {
                counts[v as usize] += 1;
            }
        }
        let expected = TRIALS as f64 * 4.0 / 12.0;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "value {v}: count {c} vs expected {expected}");
        }
    }

    /// Kept state is bounded by the interval just closed: ids that never
    /// come back leave no table slots or parked buffers behind, and a
    /// buffer that grew in a burst pane shrinks back once the burst ends.
    #[test]
    fn kept_state_is_bounded_by_the_last_interval() {
        fn check(oasrs: &OasrsSampler<f64>, live: &[u32]) {
            let end = live.iter().max().map_or(0, |&id| id as usize + 1);
            assert_eq!(oasrs.strata.len(), end);
            assert!(oasrs.strata.capacity() <= 2 * end.max(1));
            assert!(oasrs.parked.len() <= end && oasrs.parked.capacity() <= 2 * end.max(1));
            for (idx, buffer) in oasrs.parked.iter().enumerate() {
                if !live.contains(&(idx as u32)) {
                    assert_eq!(buffer.capacity(), 0, "idle stratum {idx} keeps a buffer");
                }
                assert!(buffer.capacity() <= 2 * INITIAL_RESERVE.max(400));
            }
        }
        // Churn: every pane sees fresh ids, the first one a sparse one.
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(400), 3);
        for pane in 0..40u32 {
            let live: Vec<u32> = if pane == 0 {
                vec![200_000]
            } else {
                (0..8).map(|k| 3_000 - 50 * pane + k).collect()
            };
            for &id in &live {
                feed(&mut oasrs, id, 1_000);
            }
            oasrs.finish_interval_with(|_, _, _, _| {});
            check(&oasrs, &live);
        }
        oasrs.finish_interval_with(|_, _, _, _| {});
        check(&oasrs, &[]);

        // Burst: one pane holds 100,000 items; the next holds 10.
        let mut oasrs = OasrsSampler::new(
            SizingPolicy::FractionOfPrevious {
                fraction: 1.0,
                initial: 200_000,
            },
            4,
        );
        feed(&mut oasrs, 2, 100_000);
        oasrs.finish_interval_with(|_, _, _, _| {});
        assert!(oasrs.parked[2].capacity() >= 100_000);
        feed(&mut oasrs, 2, 10);
        oasrs.finish_interval_with(|_, _, _, _| {});
        assert!(oasrs.parked[2].capacity() <= 2 * INITIAL_RESERVE);
        assert_eq!(oasrs.next_capacity[2], 10);
    }
}
