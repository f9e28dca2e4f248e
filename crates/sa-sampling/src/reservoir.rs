//! Classic reservoir sampling (Vitter 1985; Algorithm 1 in the paper),
//! accelerated by skip-ahead gap sampling once the reservoir is full.
//!
//! A [`Reservoir`] maintains a uniform random sample of fixed capacity `N`
//! over a stream of unknown length: the first `N` items fill the reservoir,
//! and the `i`-th item (`i > N`) is accepted with probability `N/i`,
//! replacing a random incumbent. Every item seen so far has the same
//! `N/i` probability of being in the reservoir at any point.
//!
//! # The skip-ahead fast path
//!
//! The naive Algorithm 1 (kept as [`Reservoir::observe`]'s fallback
//! branch) pays one RNG draw and one branch per item — `O(n)` draws for a
//! stream of `n` items, even though only `O(N log(n/N))` items are ever
//! accepted. The skip-ahead family — Vitter's Algorithms X/Z for uniform
//! reservoirs, the exponential jumps of A-ExpJ (Efraimidis & Spirakis
//! 2006) for weighted ones — inverts the loop: instead of asking "is this
//! item accepted?" per item, draw the *gap* to the next accepted item once
//! per acceptance and skip everything in between with zero randomness.
//!
//! With the reservoir full and `t` items seen, the gap `S` (the number of
//! rejected items before the next acceptance) has the exact distribution
//!
//! ```text
//! P(S ≥ s) = ∏_{i=1}^{s} (1 - N/(t+i))
//! ```
//!
//! This kernel samples `S` by direct CDF inversion — Vitter's
//! Algorithm X: draw one uniform `V ∈ (0,1)` and scan for the smallest
//! `s` with `P(S ≥ s+1) ≤ V`, accumulating the tail product one factor at
//! a time. The scan costs one floating-point multiply per *skipped* item
//! and no RNG or transcendental calls at all, so an acceptance costs
//! exactly two RNG draws (the gap's `V`, the replacement slot) no matter
//! how many items it skips — where Algorithm 1 pays a `gen_range` on
//! every single item. (Vitter's Algorithm Z and A-ExpJ instead spend
//! `exp`/`ln` calls per acceptance to jump in O(1); at the sampling
//! fractions this runtime targets, where mean gaps are short, the
//! multiply scan is cheaper than transcendental jump arithmetic while
//! drawing from the *same exact gap law*.)
//!
//! Because inversion uses only the public counters `(t, N)`, the skip
//! state is valid from **any** uniform reservoir state — a fresh fill or a
//! [`shrink_to`](Reservoir::shrink_to) re-budget simply re-arms on the
//! next observation. The inclusion probabilities are exactly
//! Algorithm 1's `N/i` (the chi-square equivalence tests below and the
//! proptests in `tests/properties.rs` hold the selection distribution to
//! it). The only fallback to per-item draws is a near-saturated `seen`
//! counter (possible after merging astronomically long streams), where an
//! eager gap scan could overshoot the stream's real end by an unbounded
//! amount.
//!
//! [`observe_batch`](Reservoir::observe_batch) and
//! [`observe_run`](Reservoir::observe_run) feed whole slices/runs through
//! the same state machine, consuming skipped runs with one `seen += k`
//! bump and no RNG calls — the batch ingest fast path the engines build
//! on. Per-item and batch observation draw from the RNG in exactly the
//! same order, so the two paths produce bit-for-bit identical reservoirs
//! from the same seed.

use rand::{PreparedUniform, Rng};

/// The seen-count-weighted union behind every merge in this crate: draws
/// up to `capacity` items from two uniform samples over *disjoint*
/// streams, choosing each slot's source with probability proportional to
/// the population mass the source still represents, then a uniformly
/// random item from it, without replacement.
///
/// If both inputs are uniform samples of their streams (inclusion
/// probability `|a|/ca` resp. `|b|/cb`), the output is a uniform sample
/// of the combined stream: every one of the `ca + cb` original items ends
/// up in the union with the same probability. This one routine backs the
/// per-stratum step of [`crate::merge_all_stratified`].
///
/// Counters saturate rather than overflow: two near-`u64::MAX` seen
/// counts merge into a (still proportionally-drawn) saturated total
/// instead of panicking.
pub(crate) fn weighted_union<T, R: Rng + ?Sized>(
    mut a: Vec<T>,
    mut ca: u64,
    mut b: Vec<T>,
    mut cb: u64,
    capacity: usize,
    rng: &mut R,
) -> Vec<T> {
    let mut out = Vec::with_capacity(capacity.min(a.len() + b.len()));
    while out.len() < capacity && (!a.is_empty() || !b.is_empty()) {
        let take_a = if a.is_empty() {
            false
        } else if b.is_empty() {
            true
        } else {
            // Draw proportionally to the remaining represented mass.
            rng.gen_range(0..ca.saturating_add(cb)) < ca
        };
        let src_items = if take_a { &mut a } else { &mut b };
        let idx = rng.gen_range(0..src_items.len());
        out.push(src_items.swap_remove(idx));
        if take_a {
            ca = ca.saturating_sub(1);
        } else {
            cb = cb.saturating_sub(1);
        }
    }
    out
}

/// Beyond this many items seen, gap sampling yields to per-item draws:
/// the inversion scan's cost is one multiply per *skipped* item, and with
/// a (near-)saturated counter — mergers of astronomically long streams —
/// a single eagerly-drawn gap of order `t/N` could dwarf the number of
/// items that will ever actually arrive.
const GAP_SCAN_LIMIT: u64 = 1 << 32;

/// Most item slots a fresh reservoir reserves up front; larger ones grow
/// as they fill.
pub(crate) const INITIAL_RESERVE: usize = 1_024;

/// The armed skip-ahead state: how many more items to reject without
/// consulting the RNG before the next acceptance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Jump {
    pub(crate) skip: u64,
}

/// A uniform draw from the open interval `(0, 1)` — `gen::<f64>()` can
/// return exactly `0.0`, which would force every inversion scan to run
/// the tail product all the way to underflow.
fn unit_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// A fixed-capacity uniform reservoir sample over a stream.
///
/// # Example
///
/// ```
/// use sa_sampling::Reservoir;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut res = Reservoir::new(10);
/// for x in 0..1_000 {
///     res.observe(x, &mut rng);
/// }
/// assert_eq!(res.len(), 10);
/// assert_eq!(res.seen(), 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir<T> {
    pub(crate) items: Vec<T>,
    pub(crate) capacity: usize,
    pub(crate) seen: u64,
    /// Pre-drawn skip-ahead state; `None` means "arm on the next full
    /// observation" (underfull, freshly mutated, or deserialized).
    pub(crate) jump: Option<Jump>,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-slot reservoir can never
    /// represent its stream and Equation 1's weight would be undefined.
    pub fn new(capacity: usize) -> Self {
        Self::with_buffer(capacity, Vec::new())
    }

    /// An empty reservoir like [`new`](Reservoir::new) that fills
    /// `buffer`, cleared, instead of a fresh allocation: how OASRS hands a
    /// stratum back the buffer it parked at the last interval boundary.
    pub(crate) fn with_buffer(capacity: usize, mut items: Vec<T>) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        items.clear();
        items.reserve_exact(capacity.min(INITIAL_RESERVE));
        Reservoir {
            items,
            capacity,
            seen: 0,
            jump: None,
        }
    }

    /// Draws the gap to the next accepted item by exact CDF inversion
    /// (Vitter's Algorithm X): the smallest `s` with
    /// `∏_{i=1}^{s+1} (1 - N/(t+i)) ≤ V`, one multiply per scanned item
    /// and a single RNG draw. Caller guarantees `seen < GAP_SCAN_LIMIT`.
    fn arm_jump<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let v = unit_open(rng);
        let n = self.capacity as f64;
        let mut t = self.seen as f64;
        let mut tail = 1.0; // running P(S ≥ skip + 1)
        let mut skip = 0u64;
        loop {
            t += 1.0;
            tail *= (t - n) / t;
            // `tail` is strictly decreasing and underflows to 0.0 in the
            // limit, so the scan always terminates.
            if tail <= v {
                break;
            }
            skip += 1;
        }
        self.jump = Some(Jump { skip });
    }

    /// Whether the skip-ahead fast path applies: the reservoir is full
    /// and the counter far enough from saturation for eager gap scans.
    #[inline]
    fn gap_mode(&self) -> bool {
        self.items.len() == self.capacity && self.seen < GAP_SCAN_LIMIT
    }

    /// Offers one stream item to the reservoir (Algorithm 1, with the
    /// skip-ahead fast path of the module docs once the reservoir is
    /// full).
    ///
    /// Returns `true` if the item was admitted (possibly evicting an
    /// incumbent), `false` if it was rejected. On the fast path a
    /// rejection costs no RNG draw at all.
    pub fn observe<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) -> bool {
        if self.items.len() < self.capacity {
            // Fill phase: every item enters.
            self.seen += 1;
            self.items.push(item);
            true
        } else if self.gap_mode() {
            if self.jump.is_none() {
                self.arm_jump(rng);
            }
            let jump = self.jump.as_mut().expect("armed above");
            if jump.skip > 0 {
                jump.skip -= 1;
                self.seen += 1;
                false
            } else {
                self.seen += 1;
                let slot = rng.gen_range(0..self.capacity);
                self.items[slot] = item;
                self.arm_jump(rng);
                true
            }
        } else {
            // Exact per-item fallback (near-saturated counter): accept
            // the i-th item with probability N/i, then replace a
            // uniformly random incumbent. Sampling j uniformly from
            // [0, i) and admitting iff j < N does both draws with one
            // sample.
            self.seen = self.seen.saturating_add(1);
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
                true
            } else {
                false
            }
        }
    }

    /// Offers a run of `count` items through the batch fast path,
    /// materializing only the accepted ones: `accept(offset)` is called
    /// with strictly increasing offsets in `0..count`, once per item that
    /// enters the reservoir; skipped items are never touched.
    ///
    /// Whole skipped gaps are consumed with one `seen += k` bump and zero
    /// RNG calls. The RNG draw order is identical to offering the same
    /// `count` items through [`observe`](Reservoir::observe) one at a
    /// time, so batch and per-item observation are bit-for-bit
    /// interchangeable.
    pub fn observe_run<R, F>(&mut self, count: u64, rng: &mut R, mut accept: F)
    where
        R: Rng + ?Sized,
        F: FnMut(u64) -> T,
    {
        let mut off = 0u64;
        // Fill phase: every item enters until the reservoir is full.
        while off < count && self.items.len() < self.capacity {
            self.seen += 1;
            let item = accept(off);
            self.items.push(item);
            off += 1;
        }
        // Replacement-slot draws for the whole run share one prepared
        // sampler: the capacity is fixed for the run's duration, so
        // Lemire's rejection threshold and the range checks are set up
        // once per accepting run instead of once per accepted item —
        // while consuming a `u64` stream bit-identical to `gen_range`
        // (so batch and per-item paths still agree exactly).
        let mut slot_draw: Option<PreparedUniform> = None;
        while off < count && self.gap_mode() {
            if self.jump.is_none() {
                self.arm_jump(rng);
            }
            let jump = self.jump.as_mut().expect("armed above");
            let remaining = count - off;
            if jump.skip >= remaining {
                // The rest of the run falls inside the current gap.
                jump.skip -= remaining;
                self.seen += remaining;
                return;
            }
            let gap = jump.skip;
            off += gap;
            self.seen += gap + 1;
            let draw = *slot_draw.get_or_insert_with(|| PreparedUniform::new(self.capacity as u64));
            let slot = draw.sample(rng) as usize;
            self.items[slot] = accept(off);
            self.arm_jump(rng);
            off += 1;
        }
        // Exact per-item fallback (near-saturated counter) for the rest.
        while off < count {
            self.seen = self.seen.saturating_add(1);
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = accept(off);
            }
            off += 1;
        }
    }

    /// Offers a slice of items through the batch fast path — skipped runs
    /// cost one counter bump, accepted items one clone.
    pub fn observe_batch<R: Rng + ?Sized>(&mut self, items: &[T], rng: &mut R)
    where
        T: Clone,
    {
        self.observe_run(items.len() as u64, rng, |off| items[off as usize].clone());
    }

    /// The sampled items, in reservoir order (not stream order).
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items currently in the reservoir (`Y = min(seen, N)`).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds no items yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity `N`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of items offered so far (the stratum counter `C`).
    #[inline]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the reservoir has filled to capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Shrinks the capacity to `new_capacity`, evicting uniformly random
    /// items if the reservoir currently holds more than that.
    ///
    /// Removing uniformly random elements from a uniform sample leaves a
    /// uniform sample, so this preserves the reservoir invariant. Used when
    /// an adaptive sizing policy reallocates budget after new strata appear.
    /// The skip-ahead state re-arms for the new capacity on the next
    /// observation — gap inversion is valid from any uniform state (see
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `new_capacity` is zero.
    pub fn shrink_to<R: Rng + ?Sized>(&mut self, new_capacity: usize, rng: &mut R) {
        assert!(new_capacity > 0, "reservoir capacity must be positive");
        while self.items.len() > new_capacity {
            let victim = rng.gen_range(0..self.items.len());
            self.items.swap_remove(victim);
        }
        self.capacity = new_capacity;
        self.jump = None;
    }

    /// Grows the capacity to `new_capacity` (no-op if not larger).
    ///
    /// Note that growing mid-stream makes the sample slightly
    /// *under-weighted* for the already-seen prefix; OASRS only grows
    /// capacities at interval boundaries where the reservoir is fresh.
    pub fn grow_to(&mut self, new_capacity: usize) {
        if new_capacity > self.capacity {
            self.capacity = new_capacity;
            self.jump = None;
        }
    }

    /// Resets the reservoir for a new time interval, keeping the capacity.
    pub fn reset(&mut self) {
        self.items.clear();
        self.seen = 0;
        self.jump = None;
    }

    /// Consumes the reservoir, returning `(items, seen)`.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.items, self.seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn fills_up_before_sampling() {
        let mut r = Reservoir::new(5);
        let mut g = rng(1);
        for x in 0..5 {
            assert!(r.observe(x, &mut g));
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert!(r.is_full());
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = Reservoir::new(8);
        let mut g = rng(2);
        for x in 0..10_000 {
            r.observe(x, &mut g);
            assert!(r.len() <= 8);
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u8>::new(0);
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut r = Reservoir::new(100);
        let mut g = rng(3);
        for x in 0..7 {
            r.observe(x, &mut g);
        }
        assert_eq!(r.len(), 7);
        assert_eq!(r.seen(), 7);
        assert!(!r.is_full());
    }

    /// Statistical check of uniformity: over many trials, each of the 20
    /// stream items should land in a 5-slot reservoir about 25% of the time.
    #[test]
    fn selection_is_approximately_uniform() {
        const TRIALS: usize = 20_000;
        const STREAM: usize = 20;
        const CAP: usize = 5;
        let mut counts = [0u32; STREAM];
        let mut g = rng(42);
        for _ in 0..TRIALS {
            let mut r = Reservoir::new(CAP);
            for x in 0..STREAM {
                r.observe(x, &mut g);
            }
            for &x in r.items() {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * CAP as f64 / STREAM as f64;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "item {x}: count {c}, expected ~{expected}");
        }
    }

    /// The classic per-item Algorithm 1 loop, as the pre-skip-ahead code
    /// ran it — the reference the chi-square equivalence tests compare
    /// the fast path against.
    fn classic_sample(stream: usize, cap: usize, g: &mut SmallRng) -> Vec<usize> {
        let mut items: Vec<usize> = Vec::new();
        for x in 0..stream {
            let seen = (x + 1) as u64;
            if items.len() < cap {
                items.push(x);
            } else {
                let j = g.gen_range(0..seen);
                if (j as usize) < cap {
                    items[j as usize] = x;
                }
            }
        }
        items
    }

    /// Chi-square equivalence of the skip-ahead path against the classic
    /// per-item Algorithm 1: per-position inclusion counts from the two
    /// implementations must be statistically indistinguishable.
    ///
    /// Two-sample homogeneity statistic `Σ (O₁ - O₂)² / (O₁ + O₂)` over
    /// the 32 stream positions, compared against the χ²₃₂ 0.999 quantile
    /// (≈ 62.5). Seeds are fixed, so the test is deterministic.
    #[test]
    fn skip_ahead_matches_classic_chi_square() {
        const TRIALS: usize = 40_000;
        const STREAM: usize = 32;
        const CAP: usize = 5;
        let mut skip_counts = [0f64; STREAM];
        let mut classic_counts = [0f64; STREAM];
        let mut g_skip = rng(0xA11CE);
        let mut g_classic = rng(0xB0B);
        for _ in 0..TRIALS {
            let mut r = Reservoir::new(CAP);
            for x in 0..STREAM {
                r.observe(x, &mut g_skip);
            }
            for &x in r.items() {
                skip_counts[x] += 1.0;
            }
            for &x in &classic_sample(STREAM, CAP, &mut g_classic) {
                classic_counts[x] += 1.0;
            }
        }
        let mut chi2 = 0.0;
        for (o1, o2) in skip_counts.iter().zip(&classic_counts) {
            chi2 += (o1 - o2).powi(2) / (o1 + o2);
        }
        assert!(
            chi2 < 62.5,
            "skip-ahead vs classic inclusion frequencies diverge: chi2 {chi2:.1} \
             (threshold 62.5 = chi2_32 at p=0.999)\nskip:    {skip_counts:?}\nclassic: {classic_counts:?}"
        );
        // And both must match the theoretical uniform N/n inclusion rate.
        let expected = TRIALS as f64 * CAP as f64 / STREAM as f64;
        let var = TRIALS as f64 * (CAP as f64 / STREAM as f64) * (1.0 - CAP as f64 / STREAM as f64);
        let mut gof = 0.0;
        for o in skip_counts {
            gof += (o - expected).powi(2) / var;
        }
        assert!(
            gof < 62.5,
            "skip-ahead inclusion frequencies not uniform: chi2 {gof:.1}"
        );
    }

    /// Batch observation is the same state machine as per-item observation:
    /// identical seed, identical reservoir, bit for bit — for every way of
    /// splitting the stream into runs.
    #[test]
    fn observe_batch_is_bit_identical_to_per_item() {
        const STREAM: u32 = 5_000;
        const CAP: usize = 16;
        let items: Vec<u32> = (0..STREAM).collect();
        let mut g = rng(99);
        let mut per_item = Reservoir::new(CAP);
        for &x in &items {
            per_item.observe(x, &mut g);
        }
        for chunk in [1usize, 7, 64, 1_024, STREAM as usize] {
            let mut g = rng(99);
            let mut batched = Reservoir::new(CAP);
            for run in items.chunks(chunk) {
                batched.observe_batch(run, &mut g);
            }
            assert_eq!(batched, per_item, "chunk size {chunk}");
        }
    }

    /// Mid-stream capacity changes re-arm the skip state — and per-item
    /// and batch observation stay bit-for-bit identical across them.
    #[test]
    fn shrink_keeps_paths_bit_identical() {
        const CAP: usize = 10;
        let mut g1 = rng(5);
        let mut g2 = rng(5);
        let mut a = Reservoir::new(CAP);
        let mut b = Reservoir::new(CAP);
        for x in 0..500u32 {
            a.observe(x, &mut g1);
        }
        b.observe_batch(&(0..500u32).collect::<Vec<_>>(), &mut g2);
        a.shrink_to(4, &mut g1);
        b.shrink_to(4, &mut g2);
        for x in 500..900u32 {
            a.observe(x, &mut g1);
        }
        b.observe_batch(&(500..900u32).collect::<Vec<_>>(), &mut g2);
        assert_eq!(a, b);
        assert_eq!(a.seen(), 900);
    }

    /// The uniformity oracle for the post-shrink re-arm: shrinking keeps
    /// the sample uniform and skip-ahead continues from the shrunk state
    /// with the exact `N/i` inclusion law.
    #[test]
    fn shrink_then_observe_stays_uniform() {
        const TRIALS: usize = 30_000;
        const STREAM: usize = 24;
        let mut counts = [0u32; STREAM];
        let mut g = rng(0x5EED);
        for _ in 0..TRIALS {
            let mut r = Reservoir::new(8);
            for x in 0..12 {
                r.observe(x, &mut g);
            }
            r.shrink_to(4, &mut g);
            for x in 12..STREAM {
                r.observe(x, &mut g);
            }
            assert_eq!(r.len(), 4);
            for &x in r.items() {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * 4.0 / STREAM as f64;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "item {x}: count {c}, expected ~{expected}");
        }
    }

    /// The skipped-run counter bump must account every item exactly once,
    /// and acceptances stay at the `O(N log(n/N))` the gap law predicts.
    #[test]
    fn observe_run_counts_every_item() {
        let mut r = Reservoir::new(4);
        let mut g = rng(11);
        let mut accepted = 0u64;
        r.observe_run(100_000, &mut g, |_| {
            accepted += 1;
            0u8
        });
        assert_eq!(r.seen(), 100_000);
        assert_eq!(r.len(), 4);
        assert!(accepted >= 4, "at least the fill must be accepted");
        assert!(
            accepted < 1_000,
            "O(N log(n/N)) acceptances expected, got {accepted}"
        );
    }

    #[test]
    fn reset_clears_state_but_keeps_capacity() {
        let mut r = Reservoir::new(4);
        let mut g = rng(5);
        for x in 0..100 {
            r.observe(x, &mut g);
        }
        r.reset();
        assert_eq!(r.len(), 0);
        assert_eq!(r.seen(), 0);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn shrink_preserves_sample_size_bound() {
        let mut r = Reservoir::new(10);
        let mut g = rng(6);
        for x in 0..50 {
            r.observe(x, &mut g);
        }
        r.shrink_to(3, &mut g);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        // seen is untouched; the reservoir still represents 50 items.
        assert_eq!(r.seen(), 50);
    }

    #[test]
    fn grow_only_increases() {
        let mut r = Reservoir::<u8>::new(5);
        r.grow_to(3);
        assert_eq!(r.capacity(), 5);
        r.grow_to(9);
        assert_eq!(r.capacity(), 9);
    }

    #[test]
    fn merge_is_uniform_over_union() {
        // Merge a reservoir over items 0..10 with one over items 10..30;
        // every item should appear with probability ~cap/30.
        const TRIALS: usize = 30_000;
        const CAP: usize = 6;
        let mut counts = [0u32; 30];
        let mut g = rng(7);
        for _ in 0..TRIALS {
            let mut ra = Reservoir::new(CAP);
            let mut rb = Reservoir::new(CAP);
            for x in 0..10 {
                ra.observe(x, &mut g);
            }
            for x in 10..30 {
                rb.observe(x, &mut g);
            }
            let merged = weighted_union(ra.items, 10, rb.items, 20, CAP, &mut g);
            assert_eq!(merged.len(), CAP);
            for x in merged {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * CAP as f64 / 30.0;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "item {x}: count {c}, expected ~{expected}");
        }
    }

    #[test]
    fn merge_handles_underfull_inputs() {
        let mut g = rng(8);
        let mut ra = Reservoir::new(5);
        ra.observe(1, &mut g);
        let merged = weighted_union(ra.items, 1, Vec::new(), 0, 5, &mut g);
        assert_eq!(merged, [1]);
    }

    #[test]
    fn merge_saturates_near_max_seen_counts() {
        let mut g = rng(9);
        let mut ra = Reservoir::new(3);
        let mut rb = Reservoir::new(3);
        for x in 0..5 {
            ra.observe(x, &mut g);
            rb.observe(x + 10, &mut g);
        }
        // Forge astronomically large counters via parts-level surgery:
        // merging must saturate, not panic.
        let (a_items, _) = ra.into_parts();
        let (b_items, _) = rb.into_parts();
        let merged = weighted_union(a_items, u64::MAX - 1, b_items, u64::MAX - 1, 3, &mut g);
        assert_eq!(merged.len(), 3);
    }

    /// A (near-)saturated counter must keep working — per-item fallback,
    /// no gap scan — instead of hanging in an astronomically long
    /// inversion scan, on both the per-item and the batch path.
    #[test]
    fn saturated_counter_falls_back_to_per_item() {
        let mut g = rng(10);
        let mut res = Reservoir::new(3);
        for x in 0..5u64 {
            res.observe(x, &mut g);
        }
        res.seen = u64::MAX - 50;
        res.jump = None;
        for x in 0..100u64 {
            res.observe(x + 100, &mut g);
            assert_eq!(res.len(), 3);
        }
        assert_eq!(res.seen(), u64::MAX);
        res.observe_run(1_000, &mut g, |off| off);
        assert_eq!(res.len(), 3);
        assert_eq!(res.seen(), u64::MAX);
    }
}
