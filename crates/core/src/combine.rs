//! Combining pane payloads into per-window `output ± error bound` results.
//!
//! A sliding window is finalized once per slide from the `size / slide`
//! panes it covers, so this is the code that runs most often per emitted
//! answer, and on a stream with thousands of strata the code that decides
//! what a window costs. It copies no pane and sorts nothing large:
//!
//! * **The invariant.** Every stratified payload a window is combined
//!   from lists its strata in ascending [`StratumId`] order (repeats
//!   allowed, adjacent). [`crate::WindowFinalizer::ingest_interval`]
//!   establishes it once per pane — a linear check for the samplers and
//!   exact accumulators, which already emit in that order, and a stable
//!   sort for anything else (partition-concatenated native panes, exact
//!   shard panes, foreign callers) — and again for payloads read back from
//!   a snapshot. [`combine_window`], which owns its input, does the same
//!   before merging. The merge `debug_assert!`s it.
//! * **The merge.** The sorted payloads are k-way merged: per stratum,
//!   the handful of entries (at most panes × workers) is gathered in pane
//!   order, put in the canonical order below, and Chan-merged straight
//!   into the output.
//! * **Why the order is canonical.** Parallel workers deliver a pane's
//!   statistics in scheduler-dependent order and floating-point merges are
//!   not associative, so the entries of one stratum are merged in the
//!   order of a key made of their own contents — population, sample count,
//!   mean bits, variance bits — never of their arrival. Entries equal on
//!   the whole key are interchangeable up to which pane they came from,
//!   and keep pane order. A run is therefore bit-for-bit reproducible from
//!   its seed on every engine, and the order is the one a stable sort of
//!   all entries on `(stratum, key)` would give.

use crate::output::WindowResult;
use sa_estimate::{
    estimate_mean, estimate_mean_by_stratum, estimate_sum, estimate_sum_by_stratum, srs_mean,
    srs_mean_by_stratum, srs_sum, srs_sum_by_stratum, SrsSample, StratumStats,
};
use sa_types::{Confidence, StratumId, Window};
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

/// Merges the per-stratum statistics of all of a window's panes (same
/// stratum across panes/workers merges via Welford/Chan) and estimates all
/// four aggregates.
fn combine_stratified(
    window: Window,
    payloads: &[&[StratumStats]],
    confidence: Confidence,
) -> WindowResult {
    let stats = merge_strata(payloads);
    WindowResult {
        window,
        sum: estimate_sum(&stats, confidence),
        mean: estimate_mean(&stats, confidence),
        sum_by_stratum: estimate_sum_by_stratum(&stats, confidence),
        mean_by_stratum: estimate_mean_by_stratum(&stats, confidence),
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

/// Combines the pane payloads a completed window was lent — in pane order,
/// stratified ones already in stratum order — into its [`WindowResult`].
///
/// # Panics
///
/// Panics if stratified and SRS payloads are mixed within one window.
pub(crate) fn combine_panes(
    window: Window,
    payloads: &[&PanePayload],
    confidence: Confidence,
) -> WindowResult {
    let mut stratified = Vec::new();
    let mut srs = Vec::new();
    for p in payloads {
        match p {
            PanePayload::Stratified(stats) => stratified.push(stats.as_slice()),
            PanePayload::Srs {
                samples,
                population,
            } => srs.push((samples.as_slice(), *population)),
        }
    }
    match (stratified.is_empty(), srs.is_empty()) {
        (_, true) => combine_stratified(window, &stratified, confidence),
        (true, false) => combine_srs(window, &srs, confidence),
        (false, false) => panic!("mixed stratified and SRS panes in one window"),
    }
}

/// Combines a completed window's pane payloads into a [`WindowResult`].
/// All payloads of one run have the same variant; mixing is a programming
/// error. The payloads may list their strata in any order.
///
/// # Panics
///
/// Panics if stratified and SRS payloads are mixed within one window.
pub fn combine_window(
    window: Window,
    mut payloads: Vec<PanePayload>,
    confidence: Confidence,
) -> WindowResult {
    payloads.iter_mut().for_each(PanePayload::sort_by_stratum);
    combine_panes(window, &payloads.iter().collect::<Vec<_>>(), confidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_estimate::Welford;
    use sa_types::EventTime;
    use std::collections::BTreeMap;

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

    /// The formulation the k-way merge replaced, kept as its oracle:
    /// flatten every payload, stable-sort all entries on the stratum and
    /// the full canonical key at once, regroup through a map.
    fn reference_combine(
        window: Window,
        payloads: Vec<Vec<StratumStats>>,
        confidence: Confidence,
    ) -> WindowResult {
        let mut all: Vec<StratumStats> = payloads.into_iter().flatten().collect();
        all.sort_by_key(|s| {
            (
                s.stratum,
                s.population,
                s.acc.count(),
                s.acc.mean().to_bits(),
                s.acc.sample_variance().to_bits(),
            )
        });
        let mut merged: BTreeMap<StratumId, StratumStats> = BTreeMap::new();
        for stats in all {
            match merged.get_mut(&stats.stratum) {
                Some(m) => m.merge(&stats),
                None => {
                    merged.insert(stats.stratum, stats);
                }
            }
        }
        let stats: Vec<StratumStats> = merged.into_values().collect();
        WindowResult {
            window,
            sum: estimate_sum(&stats, confidence),
            mean: estimate_mean(&stats, confidence),
            sum_by_stratum: estimate_sum_by_stratum(&stats, confidence),
            mean_by_stratum: estimate_mean_by_stratum(&stats, confidence),
            degraded: false,
            lost_items: 0,
        }
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
}
