//! Combining pane payloads into per-window `output ± error bound` results.
//!
//! A sliding window is finalized once per slide from the panes it covers,
//! so this is the code that runs most often per emitted answer, and on a
//! stream with thousands of strata the code that decides what a window
//! costs. It copies no pane, sorts nothing large, and does not merge a
//! pane again for every window that covers it. A window is cut into
//! *tiles* of [`window_tile_ms`] — the gcd of size and slide, so a window
//! is `W = size / tile` whole tiles and starts on a tile — and merged at
//! two levels:
//!
//! * **The invariant.** Every stratified payload a window is combined
//!   from lists its strata in ascending [`StratumId`] order (repeats
//!   allowed, adjacent). [`crate::WindowFinalizer::ingest_interval`]
//!   establishes it once per pane — a linear check for the samplers and
//!   exact accumulators, which already emit in that order, and a stable
//!   sort for anything else (partition-concatenated native panes, exact
//!   shard panes, foreign callers) — and again for payloads read back from
//!   a snapshot. The merge `debug_assert!`s it.
//! * **Within a tile: the canonical merge.** The sorted payloads of the
//!   panes starting in a tile are k-way merged: per stratum, the handful
//!   of entries (at most panes × workers) is gathered in pane order, put
//!   in the canonical order below, and Chan-merged straight into the
//!   tile's aggregate, one entry per stratum. A tile that is one payload
//!   listing each stratum once is its own aggregate and is borrowed.
//! * **Why the order is canonical.** Parallel workers deliver a pane's
//!   statistics in scheduler-dependent order and floating-point merges are
//!   not associative, so the entries of one stratum in one tile are merged
//!   in the order of a key made of their own contents — population, sample
//!   count, mean bits, variance bits — never of their arrival. Entries
//!   equal on the whole key are interchangeable up to which pane they came
//!   from, and keep pane order. The order is the one a stable sort of the
//!   tile's entries on `(stratum, key)` would give.
//! * **Across tiles: a fixed tree.** Block `b` is the `W` tiles of
//!   `[b·size, (b+1)·size)`, cut with `div_euclid`, so blocks are absolute
//!   and times before 0 work. A window whose first tile is position `i` of
//!   block `b` covers the suffix of block `b` from `i` and the prefix of
//!   block `b + 1` up to `i − 1`. Its aggregate is `S_0` when `i = 0`, else
//!   `S_i ⊕ P_{i−1}`, where `S_j = t_j ⊕ S_{j+1}` folds block `b`'s tiles
//!   from the right, `P_j = P_{j−1} ⊕ t_j` folds block `b + 1`'s from the
//!   left, and `⊕` merges two aggregates stratum by stratum, Chan-merging a
//!   stratum both hold in canonical order (the left entry first on a tie).
//!   The tree depends only on the grid, so a run stays bit-for-bit
//!   reproducible from its seed on every engine. Every aggregate is a
//!   function of tiles inside each window it serves, so [`SlidingMerge`]
//!   keeps the current block's suffixes and the running prefix between
//!   windows — a window then costs about three two-way merges, not a merge
//!   of all its panes — and one rebuilt after a restore has the same bits.
//! * **Which windows keep the bits of one canonical merge of all their
//!   entries.** A window of one tile (every tumbling window) is one tile
//!   merge: nothing is kept or copied for it. A window of two tiles whose
//!   tiles hold one entry per stratum Chan-merges the same two entries in
//!   the same order. A window of three or more tiles is folded in another
//!   order than that merge and differs from it in rounding only.

use crate::output::WindowResult;
use crate::runtime::window_tile_ms;
use sa_estimate::{
    estimate_mean, estimate_mean_by_stratum, estimate_sum, estimate_sum_by_stratum, srs_mean,
    srs_mean_by_stratum, srs_sum, srs_sum_by_stratum, SrsSample, StratumStats,
};
use sa_types::{Confidence, StratumId, Window, WindowSpec};
use std::borrow::Cow;
use std::cmp::Ordering;

/// What one pane (one batch interval / one slide interval) produced, per
/// sampling worker.
#[derive(Debug, Clone, PartialEq)]
pub enum PanePayload {
    /// Per-stratum sufficient statistics — produced by OASRS, STS and
    /// native execution.
    Stratified(Vec<StratumStats>),
    /// An unstratified simple random sample of projected values — produced
    /// by the SRS baseline, which forgets stratum populations by design.
    Srs {
        /// `(stratum, projected value)` pairs of the sampled items.
        samples: Vec<(StratumId, f64)>,
        /// How many items arrived in the pane.
        population: u64,
    },
}

impl PanePayload {
    /// Items that arrived in the pane.
    pub fn population(&self) -> u64 {
        match self {
            PanePayload::Stratified(stats) => stats.iter().map(|s| s.population).sum(),
            PanePayload::Srs { population, .. } => *population,
        }
    }

    /// Items that were sampled/aggregated in the pane.
    pub fn sampled(&self) -> u64 {
        match self {
            PanePayload::Stratified(stats) => stats.iter().map(|s| s.sample_size()).sum(),
            PanePayload::Srs { samples, .. } => samples.len() as u64,
        }
    }

    /// Establishes the window merge's invariant: stratified statistics in
    /// ascending stratum order. Stable, so entries of one stratum keep
    /// their relative order; a no-op on payloads already in order.
    pub(crate) fn sort_by_stratum(&mut self) {
        if let PanePayload::Stratified(stats) = self {
            if !in_stratum_order(stats) {
                stats.sort_by_key(|s| s.stratum);
            }
        }
    }
}

fn in_stratum_order(stats: &[StratumStats]) -> bool {
    stats
        .windows(2)
        .all(|pair| pair[0].stratum <= pair[1].stratum)
}

/// The part of the canonical merge key (see the module docs) that is
/// free to read; the variance, a division, breaks what ties remain.
fn cheap_key(s: &StratumStats) -> (u64, u64, u64) {
    (s.population, s.acc.count(), s.acc.mean().to_bits())
}

/// The canonical merge order among one stratum's entries.
fn canonical_order(a: &StratumStats, b: &StratumStats) -> Ordering {
    cheap_key(a).cmp(&cheap_key(b)).then_with(|| {
        let variance = |s: &StratumStats| s.acc.sample_variance().to_bits();
        variance(a).cmp(&variance(b))
    })
}

/// Groups of at most this many entries are ordered by counting.
const COUNTED_GROUP: usize = 16;

/// Chan-merges one stratum's entries, gathered in pane order, in canonical
/// order; equal keys keep pane order.
///
/// The usual group — a handful of entries no two of which agree on the
/// cheap key — is ordered by counting, for each entry, the entries that go
/// before it. Which of two entries goes first is as good as a coin toss,
/// so a comparison sort spends its time on mispredicted branches; the
/// count turns every comparison into an addition. Any other group is
/// stable-sorted on the full key.
fn merge_group(group: &mut [StratumStats]) -> StratumStats {
    fn chan_merge<'a>(mut entries: impl Iterator<Item = &'a StratumStats>) -> StratumStats {
        let mut stats = *entries.next().expect("a group has an entry");
        for entry in entries {
            stats.merge(entry);
        }
        stats
    }
    let n = group.len();
    if n <= COUNTED_GROUP {
        let mut before = [0usize; COUNTED_GROUP];
        let mut tied = false;
        for later in 1..n {
            let later_key = cheap_key(&group[later]);
            for earlier in 0..later {
                let earlier_key = cheap_key(&group[earlier]);
                let overtakes = usize::from(later_key < earlier_key);
                tied |= later_key == earlier_key;
                before[earlier] += overtakes;
                before[later] += 1 - overtakes;
            }
        }
        if !tied {
            let mut order = [0usize; COUNTED_GROUP];
            for (entry, &rank) in before[..n].iter().enumerate() {
                order[rank] = entry;
            }
            return chan_merge(order[..n].iter().map(|&entry| &group[entry]));
        }
    }
    group.sort_by(canonical_order);
    chan_merge(group.iter())
}

/// K-way merges stratum-ordered payloads — given in pane order — into one
/// entry per stratum, ascending.
fn merge_strata(payloads: &[&[StratumStats]]) -> Vec<StratumStats> {
    debug_assert!(
        payloads.iter().all(|p| in_stratum_order(p)),
        "a pane payload reached the window merge out of stratum order"
    );
    // Each payload's unmerged rest and, side by side so the scans below
    // read one short array, the stratum at its head.
    const EXHAUSTED: u64 = u64::MAX;
    let head_of =
        |rest: &[StratumStats]| rest.first().map_or(EXHAUSTED, |s| u64::from(s.stratum.0));
    let mut rests: Vec<&[StratumStats]> = payloads.to_vec();
    let mut heads: Vec<u64> = rests.iter().map(|rest| head_of(rest)).collect();
    let mut holders = vec![0usize; rests.len()];
    let widest = rests.iter().map(|rest| rest.len()).max().unwrap_or(0);
    let mut merged = Vec::with_capacity(widest);
    let mut group: Vec<StratumStats> = Vec::with_capacity(rests.len());
    while let Some(next) = heads.iter().copied().min().filter(|&h| h != EXHAUSTED) {
        // Which payloads hold `next` is unpredictable stratum by stratum
        // (a light stratum is in some panes only), so they are listed
        // without branching on it: every index is written, the ones that
        // do not hold it are overwritten.
        let mut held = 0;
        for (payload, &head) in heads.iter().enumerate() {
            holders[held] = payload;
            held += usize::from(head == next);
        }
        group.clear();
        for &payload in &holders[..held] {
            let rest = &mut rests[payload];
            while heads[payload] == next {
                let (entry, tail) = rest.split_first().expect("a live head has an entry");
                group.push(*entry);
                *rest = tail;
                heads[payload] = head_of(tail);
            }
        }
        merged.push(merge_group(&mut group));
    }
    merged
}

/// Estimates all four aggregates of a window from its merged per-stratum
/// statistics.
fn estimate_stratified(
    window: Window,
    stats: &[StratumStats],
    confidence: Confidence,
) -> WindowResult {
    WindowResult {
        window,
        sum: estimate_sum(stats, confidence),
        mean: estimate_mean(stats, confidence),
        sum_by_stratum: estimate_sum_by_stratum(stats, confidence),
        mean_by_stratum: estimate_mean_by_stratum(stats, confidence),
        degraded: false,
        lost_items: 0,
    }
}

/// Concatenates a window's SRS pane samples (the per-pane fraction is
/// constant, so the union is a simple random sample of the window) and
/// estimates all four aggregates with the SRS/domain estimators.
fn combine_srs(
    window: Window,
    parts: &[(&[(StratumId, f64)], u64)],
    confidence: Confidence,
) -> WindowResult {
    let mut samples = Vec::with_capacity(parts.iter().map(|(s, _)| s.len()).sum());
    let mut population = 0u64;
    for (s, p) in parts {
        samples.extend_from_slice(s);
        population += p;
    }
    let sample = SrsSample::new(samples, population);
    WindowResult {
        window,
        sum: srs_sum(&sample, |v| *v, confidence),
        mean: srs_mean(&sample, |v| *v, confidence),
        sum_by_stratum: srs_sum_by_stratum(&sample, |v| *v, confidence),
        mean_by_stratum: srs_mean_by_stratum(&sample, |v| *v, confidence),
        degraded: false,
        lost_items: 0,
    }
}

/// A tile's aggregate `t`: the canonical merge of the payloads of the
/// panes starting in it, in pane order — or, when the tile is one payload
/// listing each stratum once, that payload itself, borrowed.
fn merge_tile<'a>(payloads: &[&'a [StratumStats]]) -> Cow<'a, [StratumStats]> {
    match payloads {
        [] => Cow::Borrowed(&[]),
        [only]
            if only
                .windows(2)
                .all(|pair| pair[0].stratum < pair[1].stratum) =>
        {
            Cow::Borrowed(only)
        }
        _ => Cow::Owned(merge_strata(payloads)),
    }
}

/// How many strata two aggregates hold between them. Every aggregate the
/// merge keeps is sized to it exactly: slack in a dozen buffers of
/// thousands of strata would show in the process's resident memory.
fn union_len(left: &[StratumStats], right: &[StratumStats]) -> usize {
    let (mut l, mut r, mut both) = (0, 0, 0);
    while let (Some(a), Some(b)) = (left.get(l), right.get(r)) {
        l += usize::from(a.stratum <= b.stratum);
        r += usize::from(b.stratum <= a.stratum);
        both += usize::from(a.stratum == b.stratum);
    }
    left.len() + right.len() - both
}

/// `⊕`: merges two aggregates — one entry per stratum, ascending — stratum
/// by stratum. A stratum both hold is Chan-merged in canonical order, the
/// left entry first on a tie: the two-entry canonical merge.
///
/// The result is a fresh vector, not a kept buffer refilled: dropping the
/// aggregate it replaces, or a window's once it is estimated, hands the
/// allocator memory still hot in cache, which the estimators' tables and
/// the next pane close then reuse (refilling kept buffers made both ~15%
/// slower on a 2,048-stratum stream).
fn merge_two(left: &[StratumStats], right: &[StratumStats]) -> Vec<StratumStats> {
    let mut out = Vec::with_capacity(union_len(left, right));
    let (mut l, mut r) = (0, 0);
    while let (Some(a), Some(b)) = (left.get(l), right.get(r)) {
        match a.stratum.cmp(&b.stratum) {
            Ordering::Less => {
                out.push(*a);
                l += 1;
            }
            Ordering::Greater => {
                out.push(*b);
                r += 1;
            }
            Ordering::Equal => {
                let (first, second) = if canonical_order(b, a).is_lt() {
                    (b, a)
                } else {
                    (a, b)
                };
                let mut merged = *first;
                merged.merge(second);
                out.push(merged);
                l += 1;
                r += 1;
            }
        }
    }
    out.extend_from_slice(&left[l..]);
    out.extend_from_slice(&right[r..]);
    out
}

/// The block-aligned sliding merge of one run's windows (see the module
/// docs): per-tile canonical merges folded by the grid's fixed tree, with
/// the current block's suffixes and the next block's running prefix kept
/// between windows. Everything kept is a function of tiles inside every
/// window it serves, so a fresh merge — a restored finalizer's — rebuilds
/// it with the same bits.
pub(crate) struct SlidingMerge {
    tile_ms: i64,
    /// `W`: tiles per window, and per block.
    tiles: usize,
    /// The block `suffixes` and `prefix` belong to, once a window of it
    /// has been merged.
    block: Option<i64>,
    /// `suffixes[j]` is `S_j` of `block` for `held_from <= j < W − 1`.
    /// `S_{W−1}` is the block's last tile, which is never copied.
    suffixes: Vec<Vec<StratumStats>>,
    held_from: usize,
    /// How many leading tiles of block `block + 1` `prefix` folds. One
    /// tile is its own prefix, so `prefix` is held from two tiles on.
    prefix_len: usize,
    prefix: Vec<StratumStats>,
}

impl SlidingMerge {
    /// A merge for windows of `spec`, cut into tiles of
    /// [`window_tile_ms`].
    pub(crate) fn new(spec: WindowSpec) -> Self {
        let tile_ms = window_tile_ms(spec);
        let tiles = usize::try_from(spec.size_millis() / tile_ms)
            .expect("a window is a positive number of tiles");
        SlidingMerge {
            tile_ms,
            tiles,
            block: None,
            suffixes: Vec::new(),
            held_from: tiles - 1,
            prefix_len: 0,
            prefix: Vec::new(),
        }
    }

    /// Forgets everything folded so far if the pane starting at `start_ms`
    /// lies in a tile that was folded: a pane that arrives behind the
    /// windows already merged still reaches every later window covering
    /// it, as it would in a merge from scratch.
    pub(crate) fn pane_added(&mut self, start_ms: i64) {
        let tile = start_ms.div_euclid(self.tile_ms);
        let tiles = self.tiles as i64;
        if let Some(block) = self.block {
            let folded_end = block
                .saturating_add(1)
                .saturating_mul(tiles)
                .saturating_add(self.prefix_len as i64);
            if tile < folded_end {
                self.block = None;
            }
        }
    }

    /// Merges and estimates a completed window from the panes lent to it,
    /// as `(pane start, payload)` in pane order; stratified payloads are
    /// in stratum order.
    ///
    /// # Panics
    ///
    /// Panics if stratified and SRS payloads are mixed within one window.
    pub(crate) fn combine(
        &mut self,
        window: Window,
        panes: &[(i64, &PanePayload)],
        confidence: Confidence,
    ) -> WindowResult {
        let first_tile = window.start.as_millis().div_euclid(self.tile_ms);
        // Tile `p`'s payloads are `stratified[bounds[p]..bounds[p + 1]]`.
        let mut stratified = Vec::with_capacity(panes.len());
        let mut bounds = Vec::with_capacity(self.tiles + 1);
        let mut srs = Vec::new();
        for &(start, payload) in panes {
            match payload {
                PanePayload::Stratified(stats) => {
                    let tile = usize::try_from(start.div_euclid(self.tile_ms) - first_tile)
                        .expect("a lent pane starts inside its window");
                    bounds.resize(tile + 1, stratified.len());
                    stratified.push(stats.as_slice());
                }
                PanePayload::Srs {
                    samples,
                    population,
                } => srs.push((samples.as_slice(), *population)),
            }
        }
        bounds.resize(self.tiles + 1, stratified.len());
        match (stratified.is_empty(), srs.is_empty()) {
            (_, true) => {
                let stats = self.window(first_tile, &stratified, &bounds);
                estimate_stratified(window, &stats, confidence)
            }
            (true, false) => combine_srs(window, &srs, confidence),
            (false, false) => panic!("mixed stratified and SRS panes in one window"),
        }
    }

    /// The aggregate of the window whose first tile is `first_tile`: `S_0`
    /// of its block when it starts one, else `S_i ⊕ P_{i−1}`.
    fn window<'a>(
        &'a mut self,
        first_tile: i64,
        payloads: &[&'a [StratumStats]],
        bounds: &[usize],
    ) -> Cow<'a, [StratumStats]> {
        let w = self.tiles;
        let tile = |p: usize| merge_tile(&payloads[bounds[p]..bounds[p + 1]]);
        let block = first_tile.div_euclid(w as i64);
        let i = first_tile.rem_euclid(w as i64) as usize;
        let SlidingMerge {
            block: held_block,
            suffixes,
            held_from,
            prefix_len,
            prefix: held_prefix,
            ..
        } = self;
        if *held_block != Some(block) {
            *held_block = Some(block);
            *held_from = w - 1;
            *prefix_len = 0;
        }
        // S_i: the window's tiles 0..W − i are the block's i..W.
        let suffix = if i + 1 == w {
            tile(0)
        } else {
            suffixes.resize_with(w - 1, Vec::new);
            for j in (i..*held_from).rev() {
                suffixes[j] = match suffixes.get(j + 1) {
                    Some(next) => merge_two(&tile(j - i), next),
                    None => merge_two(&tile(j - i), &tile(w - 1 - i)),
                };
            }
            *held_from = i.min(*held_from);
            Cow::Borrowed(suffixes[i].as_slice())
        };
        if i == 0 {
            return suffix;
        }
        // P_{i−1}: the window's tiles W − i..W are block + 1's 0..i.
        let first = w - i;
        let prefix = if i == 1 {
            tile(first)
        } else {
            debug_assert!(*prefix_len <= i, "windows finalize in start order");
            while *prefix_len < i {
                match *prefix_len {
                    0 => {}
                    1 => *held_prefix = merge_two(&tile(first), &tile(first + 1)),
                    len => *held_prefix = merge_two(held_prefix, &tile(first + len)),
                }
                *prefix_len += 1;
            }
            Cow::Borrowed(held_prefix.as_slice())
        };
        Cow::Owned(merge_two(&suffix, &prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_estimate::Welford;
    use sa_types::EventTime;
    use std::collections::BTreeMap;

    /// Combines a completed window's pane payloads — in any stratum order,
    /// all lent to a one-tile window — through the finalizer's merge.
    fn combine_window(
        window: Window,
        payloads: Vec<PanePayload>,
        confidence: Confidence,
    ) -> WindowResult {
        let length = window.end.as_millis() - window.start.as_millis();
        let mut finalizer =
            crate::WindowFinalizer::new(WindowSpec::tumbling_millis(length), confidence);
        for payload in payloads {
            finalizer.ingest_interval(window, payload);
        }
        finalizer.close_interval(window.end);
        let mut windows = finalizer.drain_windows();
        assert_eq!(windows.len(), 1, "one window completes");
        windows.pop().expect("one window")
    }

    fn window() -> Window {
        Window::new(EventTime::from_secs(0), EventTime::from_secs(10))
    }

    fn stats(id: u32, pop: u64, values: &[f64]) -> StratumStats {
        let acc: Welford = values.iter().copied().collect();
        StratumStats::from_parts(StratumId(id), pop, acc)
    }

    #[test]
    fn stratified_panes_merge_per_stratum() {
        // Two panes, same stratum, fully sampled: exact sum 1+2+3+4.
        let payloads = vec![
            PanePayload::Stratified(vec![stats(0, 2, &[1.0, 2.0])]),
            PanePayload::Stratified(vec![stats(0, 2, &[3.0, 4.0])]),
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        assert!((r.sum.value - 10.0).abs() < 1e-12);
        assert_eq!(r.sum.bound.margin(), 0.0);
        assert!((r.mean.value - 2.5).abs() < 1e-12);
        assert_eq!(r.sum_by_stratum.len(), 1);
    }

    #[test]
    fn stratified_weights_apply_after_merge() {
        // One stratum: 4 sampled of 8 across two panes → weight 2.
        let payloads = vec![
            PanePayload::Stratified(vec![stats(0, 4, &[1.0, 2.0])]),
            PanePayload::Stratified(vec![stats(0, 4, &[3.0, 4.0])]),
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        assert!((r.sum.value - 20.0).abs() < 1e-12);
        assert_eq!(r.sum.sample_size, 4);
        assert_eq!(r.sum.population_size, 8);
    }

    #[test]
    fn srs_panes_concatenate() {
        let payloads = vec![
            PanePayload::Srs {
                samples: vec![(StratumId(0), 2.0)],
                population: 2,
            },
            PanePayload::Srs {
                samples: vec![(StratumId(0), 4.0)],
                population: 2,
            },
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        // 2 sampled of 4 → HT expansion (4/2)·6 = 12.
        assert!((r.sum.value - 12.0).abs() < 1e-12);
        assert!((r.mean.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_exact_zero() {
        let r = combine_window(window(), vec![], Confidence::P95);
        assert_eq!(r.sum.value, 0.0);
        assert_eq!(r.sum.bound.margin(), 0.0);
        assert!(r.sum_by_stratum.is_empty());
    }

    #[test]
    #[should_panic(expected = "mixed stratified and SRS panes")]
    fn mixed_payloads_rejected() {
        let payloads = vec![
            PanePayload::Stratified(vec![]),
            PanePayload::Srs {
                samples: vec![],
                population: 0,
            },
        ];
        let _ = combine_window(window(), payloads, Confidence::P95);
    }

    /// The full canonical merge key of one entry, spelled out.
    fn reference_key(s: &StratumStats) -> (u64, u64, u64, u64) {
        (
            s.population,
            s.acc.count(),
            s.acc.mean().to_bits(),
            s.acc.sample_variance().to_bits(),
        )
    }

    /// The formulation the k-way merge replaced, kept as its oracle:
    /// flatten every payload, stable-sort all entries on the stratum and
    /// the full canonical key at once, regroup through a map.
    fn reference_merge(payloads: Vec<Vec<StratumStats>>) -> Vec<StratumStats> {
        let mut all: Vec<StratumStats> = payloads.into_iter().flatten().collect();
        all.sort_by_key(|s| (s.stratum, reference_key(s)));
        let mut merged: BTreeMap<StratumId, StratumStats> = BTreeMap::new();
        for stats in all {
            match merged.get_mut(&stats.stratum) {
                Some(m) => m.merge(&stats),
                None => {
                    merged.insert(stats.stratum, stats);
                }
            }
        }
        merged.into_values().collect()
    }

    /// [`reference_merge`] of a window's payloads, estimated.
    fn reference_combine(
        window: Window,
        payloads: Vec<Vec<StratumStats>>,
        confidence: Confidence,
    ) -> WindowResult {
        estimate_stratified(window, &reference_merge(payloads), confidence)
    }

    /// Every number of a result, bit for bit.
    fn bits(r: &WindowResult) -> Vec<u64> {
        let one = |a: &sa_types::ApproxResult| {
            [
                a.value.to_bits(),
                a.bound.margin().to_bits(),
                a.sample_size,
                a.population_size,
            ]
        };
        let per_stratum = |rows: &[(StratumId, sa_types::ApproxResult)]| {
            rows.iter()
                .flat_map(|(id, a)| std::iter::once(u64::from(id.0)).chain(one(a)))
                .collect::<Vec<u64>>()
        };
        let mut out = Vec::new();
        out.extend(one(&r.sum));
        out.extend(one(&r.mean));
        out.extend(per_stratum(&r.sum_by_stratum));
        out.extend(per_stratum(&r.mean_by_stratum));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The k-way merge is the flatten-sort-regroup it replaced, to the
        /// bit, on all four aggregates. Payloads come in any number (a
        /// pane may have several, arriving in any order), sorted or not,
        /// empty, with a stratum repeated inside one payload or present in
        /// only some; values and populations are drawn from so few that
        /// entries tie on the whole key, and there are enough payloads
        /// that one stratum's group outgrows the counted ordering.
        #[test]
        fn k_way_merge_is_the_flatten_and_sort_it_replaced(
            payloads in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..8, 0u64..3, proptest::collection::vec(0u8..3, 0..4)),
                    0..10,
                ),
                0..30,
            ),
            sort_some in proptest::collection::vec(proptest::prelude::any::<bool>(), 30..31),
        ) {
            use proptest::prelude::*;
            const IDS: [u32; 8] = [0, 1, 2, 3, 4, 7, 1 << 20, u32::MAX];
            let payloads: Vec<Vec<StratumStats>> = payloads
                .iter()
                .zip(&sort_some)
                .map(|(entries, &sorted)| {
                    let mut payload: Vec<StratumStats> = entries
                        .iter()
                        .map(|(id, unsampled, values)| {
                            let acc: Welford = values.iter().map(|&v| f64::from(v)).collect();
                            StratumStats::from_parts(
                                StratumId(IDS[*id]),
                                acc.count() + unsampled,
                                acc,
                            )
                        })
                        .collect();
                    if sorted {
                        payload.sort_by_key(|s| s.stratum);
                    }
                    payload
                })
                .collect();
            let expected = reference_combine(window(), payloads.clone(), Confidence::P95);
            let panes = payloads.into_iter().map(PanePayload::Stratified).collect();
            let got = combine_window(window(), panes, Confidence::P95);
            prop_assert_eq!(bits(&got), bits(&expected));
        }
    }

    #[test]
    fn a_wide_group_and_a_tied_group_merge_like_the_reference() {
        // One stratum in 40 single-entry payloads (past the counted
        // ordering), every third entry a copy of the one before it.
        let payloads: Vec<Vec<StratumStats>> = (0..40u64)
            .map(|k| {
                let k = k - u64::from(k % 3 == 2);
                vec![stats(5, 100 - k, &[k as f64, 0.5 * k as f64])]
            })
            .collect();
        let expected = reference_combine(window(), payloads.clone(), Confidence::P95);
        let panes = payloads.into_iter().map(PanePayload::Stratified).collect();
        let got = combine_window(window(), panes, Confidence::P95);
        assert_eq!(bits(&got), bits(&expected));
        assert_eq!(got.sum.population_size, expected.sum.population_size);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of stratum order")]
    fn the_merge_asserts_its_invariant_in_debug_builds() {
        let unsorted = [stats(2, 1, &[1.0]), stats(1, 1, &[1.0])];
        let _ = merge_strata(&[&unsorted]);
    }

    #[test]
    fn payload_counters() {
        let p = PanePayload::Stratified(vec![stats(0, 10, &[1.0, 2.0])]);
        assert_eq!(p.population(), 10);
        assert_eq!(p.sampled(), 2);
        let s = PanePayload::Srs {
            samples: vec![(StratumId(0), 1.0)],
            population: 5,
        };
        assert_eq!(s.population(), 5);
        assert_eq!(s.sampled(), 1);
    }

    /// `⊕` spelled out: a stratum both sides hold is Chan-merged with the
    /// smaller full key first, the left entry on a tie.
    fn reference_plus(left: Vec<StratumStats>, right: Vec<StratumStats>) -> Vec<StratumStats> {
        let mut out: BTreeMap<StratumId, StratumStats> =
            left.into_iter().map(|s| (s.stratum, s)).collect();
        for r in right {
            match out.get_mut(&r.stratum) {
                Some(l) if reference_key(&r) < reference_key(l) => {
                    let mut merged = r;
                    merged.merge(l);
                    *l = merged;
                }
                Some(l) => l.merge(&r),
                None => {
                    out.insert(r.stratum, r);
                }
            }
        }
        out.into_values().collect()
    }

    /// A window's aggregate the long way round, with nothing kept between
    /// windows: the canonical merge of every tile, then `S_0` or
    /// `S_i ⊕ P_{i−1}` folded from those.
    fn reference_window(
        spec: WindowSpec,
        window: Window,
        ingested: &[(i64, Vec<StratumStats>)],
    ) -> Vec<StratumStats> {
        let tile_ms = crate::runtime::window_tile_ms(spec);
        let w = spec.size_millis() / tile_ms;
        let tile = |k: i64| {
            reference_merge(
                ingested
                    .iter()
                    .filter(|(start, _)| start.div_euclid(tile_ms) == k)
                    .map(|(_, payload)| payload.clone())
                    .collect(),
            )
        };
        let first = window.start.as_millis().div_euclid(tile_ms);
        let (block, i) = (first.div_euclid(w), first.rem_euclid(w));
        let suffix = (i..w - 1).rev().fold(tile(block * w + w - 1), |acc, j| {
            reference_plus(tile(block * w + j), acc)
        });
        if i == 0 {
            return suffix;
        }
        let prefix = (1..i).fold(tile((block + 1) * w), |acc, j| {
            reference_plus(acc, tile((block + 1) * w + j))
        });
        reference_plus(suffix, prefix)
    }

    /// Entries of one generated payload: `(stratum index, unsampled
    /// items, sampled values)`.
    type Entries = Vec<(usize, u64, Vec<u8>)>;

    /// Drives a finalizer for `spec` over a generated stream and returns
    /// what it emitted with every `(pane start, payload)` it was fed.
    ///
    /// Panes are a tile or half a tile long and start at pane `first`
    /// (negative: before time 0). `panes[n]` is the `n`-th pane's kind (0:
    /// missing, nothing ingested) and its 0–3 payloads, which may repeat a
    /// stratum; before pane `gap`, event time jumps past the skip horizon.
    /// With `one_entry_per_tile`, a stratum already in the pane's tile is
    /// dropped from later payloads.
    fn drive(
        spec: WindowSpec,
        half_panes: bool,
        first: i64,
        panes: &[(u8, Vec<Entries>)],
        gap: usize,
        one_entry_per_tile: bool,
    ) -> (Vec<WindowResult>, Vec<(i64, Vec<StratumStats>)>) {
        const IDS: [u32; 6] = [0, 1, 2, 7, 1 << 20, u32::MAX];
        let tile_ms = crate::runtime::window_tile_ms(spec);
        let pane_ms = if half_panes { tile_ms / 2 } else { tile_ms };
        let horizon = 2 * (spec.size_millis() + spec.slide_millis());
        let mut finalizer = crate::WindowFinalizer::new(spec, Confidence::P95);
        let mut ingested = Vec::new();
        let mut seen: BTreeMap<i64, Vec<StratumId>> = BTreeMap::new();
        let mut k = first;
        for (n, (kind, payloads)) in panes.iter().enumerate() {
            if n == gap {
                k += horizon / pane_ms + 3;
            }
            let start = k * pane_ms;
            let pane = Window::new(
                EventTime::from_millis(start),
                EventTime::from_millis(start + pane_ms),
            );
            for entries in payloads.iter().filter(|_| *kind != 0) {
                let in_tile = seen.entry(start.div_euclid(tile_ms)).or_default();
                let mut payload = Vec::new();
                for (id, unsampled, values) in entries {
                    let stratum = StratumId(IDS[*id]);
                    if one_entry_per_tile && in_tile.contains(&stratum) {
                        continue;
                    }
                    in_tile.push(stratum);
                    let acc: Welford = values.iter().map(|&v| f64::from(v)).collect();
                    payload.push(StratumStats::from_parts(
                        stratum,
                        acc.count() + unsampled,
                        acc,
                    ));
                }
                finalizer.ingest_interval(pane, PanePayload::Stratified(payload.clone()));
                ingested.push((start, payload));
            }
            finalizer.close_interval(pane.end);
            k += 1;
        }
        finalizer.finish();
        (finalizer.drain_windows(), ingested)
    }

    /// The payloads fed for panes starting inside `window`, in feeding
    /// order.
    fn inside(window: Window, ingested: &[(i64, Vec<StratumStats>)]) -> Vec<Vec<StratumStats>> {
        let span = window.start.as_millis()..window.end.as_millis();
        ingested
            .iter()
            .filter(|(start, _)| span.contains(start))
            .map(|(_, payload)| payload.clone())
            .collect()
    }

    /// A window spec of `size` tiles of 100 ms sliding by `slide` of them,
    /// `slide` folded into `1..=size`.
    fn spec_of(size: i64, slide: i64) -> WindowSpec {
        WindowSpec::sliding_millis(size * 100, (1 + slide % size) * 100)
    }

    /// `a` and `b` agree to within 1e-12 of the larger magnitude.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// Every count of a result exactly, every value and margin to 1e-12.
    fn assert_near(got: &WindowResult, flat: &WindowResult) {
        let one = |g: &sa_types::ApproxResult, f: &sa_types::ApproxResult| {
            assert_eq!(
                (g.sample_size, g.population_size),
                (f.sample_size, f.population_size),
                "{}",
                got.window
            );
            assert!(close(g.value, f.value), "{} value {g:?} {f:?}", got.window);
            assert!(
                close(g.bound.margin(), f.bound.margin()),
                "{} margin {g:?} {f:?}",
                got.window
            );
        };
        one(&got.sum, &flat.sum);
        one(&got.mean, &flat.mean);
        for (rows, flat_rows) in [
            (&got.sum_by_stratum, &flat.sum_by_stratum),
            (&got.mean_by_stratum, &flat.mean_by_stratum),
        ] {
            assert_eq!(rows.len(), flat_rows.len(), "{}", got.window);
            for ((id, g), (flat_id, f)) in rows.iter().zip(flat_rows) {
                assert_eq!(id, flat_id, "{}", got.window);
                one(g, f);
            }
        }
    }

    fn entries() -> impl proptest::prelude::Strategy<Value = Entries> {
        proptest::collection::vec(
            (0usize..6, 0u64..3, proptest::collection::vec(0u8..3, 0..4)),
            0..6,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every window the finalizer emits is its per-tile canonical
        /// merges folded by the block tree — computed here from scratch
        /// per window, so nothing the finalizer keeps between windows can
        /// change a bit — and counts what a flat canonical merge of its
        /// panes counts, with values and margins equal to 1e-12.
        #[test]
        fn the_sliding_merge_is_the_block_fold_of_tile_merges(
            shape in (1i64..13, 0i64..12, proptest::prelude::any::<bool>(), -40i64..40),
            panes in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(entries(), 0..4)),
                1..40,
            ),
            gap in 0usize..80,
        ) {
            use proptest::prelude::*;
            let (size, slide, half_panes, first) = shape;
            let spec = spec_of(size, slide);
            let (windows, ingested) = drive(spec, half_panes, first, &panes, gap, false);
            for got in &windows {
                let reference = reference_window(spec, got.window, &ingested);
                let expected = estimate_stratified(got.window, &reference, Confidence::P95);
                prop_assert_eq!(bits(got), bits(&expected), "{:?} {}", spec, got.window);
                let flat = reference_combine(
                    got.window,
                    inside(got.window, &ingested),
                    Confidence::P95,
                );
                assert_near(got, &flat);
            }
        }

        /// The windows the fixed tree leaves alone: a one-tile window is
        /// one canonical merge, and a two-tile window whose tiles hold one
        /// entry per stratum Chan-merges the same two entries in the same
        /// order — both bit-identical to a flat canonical merge.
        #[test]
        fn one_and_two_tile_windows_keep_the_flat_merge_bits(
            shape in (1i64..3, 0i64..2, proptest::prelude::any::<bool>(), -40i64..40),
            panes in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(entries(), 0..4)),
                1..40,
            ),
            gap in 0usize..80,
        ) {
            use proptest::prelude::*;
            let (size, slide, half_panes, first) = shape;
            let spec = spec_of(size, slide);
            let two_tiles = spec.size_millis() / crate::runtime::window_tile_ms(spec) == 2;
            let (windows, ingested) = drive(spec, half_panes, first, &panes, gap, two_tiles);
            for got in &windows {
                let flat = reference_combine(
                    got.window,
                    inside(got.window, &ingested),
                    Confidence::P95,
                );
                prop_assert_eq!(bits(got), bits(&flat), "{:?} {}", spec, got.window);
            }
        }
    }

    #[test]
    fn a_late_pane_reaches_every_later_window_that_covers_it() {
        // 500 ms / 100 ms: five tiles a window. After the window ending at
        // 700 ms, block 0's suffixes and two tiles of block 1's prefix
        // are folded; a payload then arrives for the pane at 600 ms.
        let spec = WindowSpec::sliding_millis(500, 100);
        let pane = |k: i64| {
            Window::new(
                EventTime::from_millis(k * 100),
                EventTime::from_millis(k * 100 + 100),
            )
        };
        let payload = |k: i64| vec![stats(3, 4, &[k as f64, 0.5 * k as f64 + 0.1])];
        let mut finalizer = crate::WindowFinalizer::new(spec, Confidence::P95);
        let mut ingested = Vec::new();
        let mut feed =
            |finalizer: &mut crate::WindowFinalizer, k: i64, values: Vec<StratumStats>| {
                finalizer.ingest_interval(pane(k), PanePayload::Stratified(values.clone()));
                ingested.push((k * 100, values));
            };
        for k in 0..7 {
            feed(&mut finalizer, k, payload(k));
            finalizer.close_interval(pane(k).end);
        }
        let before = finalizer.drain_windows();
        assert_eq!(before.last().map(|r| r.window.end), Some(pane(6).end));
        feed(&mut finalizer, 6, vec![stats(3, 9, &[40.0, 2.5, 7.0])]);
        for k in 7..12 {
            feed(&mut finalizer, k, payload(k));
            finalizer.close_interval(pane(k).end);
        }
        let after = finalizer.drain_windows();
        assert!(after.len() >= 5);
        for got in &after {
            let reference = reference_window(spec, got.window, &ingested);
            let expected = estimate_stratified(got.window, &reference, Confidence::P95);
            assert_eq!(bits(got), bits(&expected), "{}", got.window);
        }
    }
}
