//! ScaSRS — scalable simple random sampling via random sort with two
//! thresholds (Meng, ICML 2013), the algorithm behind Apache Spark's
//! `sample`/`takeSample` that the paper uses as its SRS baseline (§4.1.1).
//!
//! To draw exactly `s` of `n` items, every item is assigned a uniform random
//! key in `[0, 1)` and the `s` smallest keys win. Sorting all of "Big Data"
//! is the bottleneck, so Spark bounds the sort with two thresholds around
//! `p = s/n`:
//!
//! * keys below a low threshold `l` are **selected immediately**,
//! * keys above a high threshold `h` are **discarded immediately**,
//! * only the narrow wait-list in between is sorted.
//!
//! With failure probability `δ`, `l` and `h` are chosen from Bernstein-style
//! tail bounds so that w.h.p. at most `s` keys fall below `l` and at least
//! `s` fall below `h`; the expected wait-list is only `O(√(s·ln(1/δ)))`.

use rand::Rng;

/// Failure probability used for the threshold derivation, matching Spark's
/// default order of magnitude.
pub const SCASRS_DELTA: f64 = 1e-4;

/// Counters describing how much work a ScaSRS pass did — used by the
/// `ablation_threshold` benchmark to show how the two thresholds shrink the
/// sort volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScasrsStats {
    /// Items accepted below the low threshold without sorting.
    pub accepted_directly: usize,
    /// Items that entered the wait-list (and were sorted).
    pub waitlisted: usize,
    /// Items rejected above the high threshold without sorting.
    pub rejected_directly: usize,
}

impl ScasrsStats {
    /// Accumulates the work counters of another ScaSRS pass (another
    /// shard or partition of the same draw) — counters are additive.
    pub fn merge(&mut self, other: ScasrsStats) {
        self.accepted_directly += other.accepted_directly;
        self.waitlisted += other.waitlisted;
        self.rejected_directly += other.rejected_directly;
    }
}

/// Merges two simple random samples drawn over *disjoint* populations into
/// one SRS of at most `s` items over the combined population — the SRS
/// counterpart of the per-stratum weighted reservoir union (each output
/// slot is drawn from a side with probability proportional to the
/// population mass it still represents).
///
/// Used to combine shard-local ScaSRS draws without re-sorting: if each
/// input is uniform over its `pop`, the merge is uniform over
/// `pop_a + pop_b`.
pub fn merge_srs_samples<T, R: Rng + ?Sized>(
    a: Vec<T>,
    pop_a: u64,
    b: Vec<T>,
    pop_b: u64,
    s: usize,
    rng: &mut R,
) -> Vec<T> {
    crate::reservoir::weighted_union(a, pop_a, b, pop_b, s, rng)
}

/// The `(l, h)` thresholds around `p = s/n` for failure probability `delta`.
///
/// `h` satisfies `P(Binomial(n, h) < s) ≤ δ` (so rejecting keys above `h`
/// w.h.p. still leaves `s` candidates) and `l` satisfies
/// `P(Binomial(n, l) > s) ≤ δ` (so accepting keys below `l` w.h.p. does not
/// overshoot `s`). Formulas follow Meng (ICML'13), §3.
///
/// # Panics
///
/// Panics if `n == 0` or `delta` is not in `(0, 1)`.
pub fn scasrs_thresholds(s: usize, n: usize, delta: f64) -> (f64, f64) {
    assert!(n > 0, "population must be non-empty");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    let p = s as f64 / n as f64;
    let nf = n as f64;
    let g1 = -delta.ln() / nf;
    let g2 = -(2.0 * delta.ln()) / (3.0 * nf);
    let high = (p + g1 + (g1 * g1 + 2.0 * g1 * p).sqrt()).min(1.0);
    let low = (p + g2 - (g2 * g2 + 3.0 * g2 * p).sqrt()).max(0.0);
    (low, high)
}

/// Draws a simple random sample of exactly `min(s, n)` items using the
/// two-threshold random-sort algorithm, returning the sample and the work
/// counters.
///
/// The returned sample is uniform over all `n`-choose-`s` subsets (up to the
/// `δ` failure probability, in which case the wait-list is exhausted and the
/// sample may come up short — exactly Spark's behaviour).
///
/// # Example
///
/// ```
/// use sa_sampling::scasrs_sample_with_stats;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let (sample, stats) = scasrs_sample_with_stats((0..10_000).collect(), 100, &mut rng);
/// assert_eq!(sample.len(), 100);
/// // The two thresholds spare almost everything from the sort.
/// assert!(stats.waitlisted < 1_000);
/// assert!(stats.rejected_directly > 8_000);
/// ```
pub fn scasrs_sample_with_stats<T, R: Rng + ?Sized>(
    items: Vec<T>,
    s: usize,
    rng: &mut R,
) -> (Vec<T>, ScasrsStats) {
    let n = items.len();
    let mut stats = ScasrsStats::default();
    if s == 0 {
        stats.rejected_directly = n;
        return (Vec::new(), stats);
    }
    if s >= n {
        stats.accepted_directly = n;
        return (items, stats);
    }
    let (low, high) = scasrs_thresholds(s, n, SCASRS_DELTA);
    let mut accepted: Vec<T> = Vec::with_capacity(s);
    let mut waitlist: Vec<(f64, T)> = Vec::new();
    for item in items {
        let key: f64 = rng.gen();
        if key < low {
            accepted.push(item);
        } else if key > high {
            stats.rejected_directly += 1;
        } else {
            waitlist.push((key, item));
        }
    }
    stats.accepted_directly = accepted.len();
    stats.waitlisted = waitlist.len();
    if accepted.len() < s {
        // Sort only the wait-list — this is the step whose cost the
        // thresholds bound.
        waitlist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("keys are finite"));
        let need = s - accepted.len();
        accepted.extend(waitlist.into_iter().take(need).map(|(_, t)| t));
    } else {
        // The low threshold overshot (probability ≤ δ): trim uniformly.
        while accepted.len() > s {
            let victim = rng.gen_range(0..accepted.len());
            accepted.swap_remove(victim);
        }
    }
    (accepted, stats)
}

/// Draws a simple random sample of exactly `min(s, n)` items; see
/// [`scasrs_sample_with_stats`] for the mechanism.
pub fn scasrs_sample<T, R: Rng + ?Sized>(items: Vec<T>, s: usize, rng: &mut R) -> Vec<T> {
    scasrs_sample_with_stats(items, s, rng).0
}

/// The naive random-sort sample: assign keys to *all* items, fully sort,
/// take the `s` smallest. Identical distribution to [`scasrs_sample`] but
/// pays the full `O(n log n)` sort — kept for the threshold ablation.
pub fn random_sort_sample<T, R: Rng + ?Sized>(items: Vec<T>, s: usize, rng: &mut R) -> Vec<T> {
    let mut keyed: Vec<(f64, T)> = items.into_iter().map(|t| (rng.gen(), t)).collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("keys are finite"));
    keyed.truncate(s);
    keyed.into_iter().map(|(_, t)| t).collect()
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
    fn thresholds_bracket_p() {
        let (l, h) = scasrs_thresholds(100, 10_000, SCASRS_DELTA);
        let p = 0.01;
        assert!(l < p, "low {l} must be below p");
        assert!(h > p, "high {h} must be above p");
        assert!(l >= 0.0 && h <= 1.0);
    }

    #[test]
    fn thresholds_tighten_with_n() {
        let (l1, h1) = scasrs_thresholds(100, 1_000, SCASRS_DELTA);
        let (l2, h2) = scasrs_thresholds(10_000, 100_000, SCASRS_DELTA);
        // Same p = 0.1; the bracket must shrink as n grows.
        assert!(h2 - l2 < h1 - l1);
    }

    #[test]
    fn exact_sample_size() {
        let mut g = rng(1);
        for &(n, s) in &[
            (1_000usize, 10usize),
            (1_000, 500),
            (1_000, 999),
            (50, 50),
            (50, 60),
        ] {
            let sample = scasrs_sample((0..n).collect(), s, &mut g);
            assert_eq!(sample.len(), s.min(n), "n={n} s={s}");
        }
    }

    #[test]
    fn zero_sample_is_empty() {
        let mut g = rng(2);
        let (sample, stats) = scasrs_sample_with_stats(vec![1, 2, 3], 0, &mut g);
        assert!(sample.is_empty());
        assert_eq!(stats.rejected_directly, 3);
    }

    #[test]
    fn sample_has_no_duplicates() {
        let mut g = rng(3);
        let mut sample = scasrs_sample((0..10_000).collect::<Vec<u32>>(), 200, &mut g);
        sample.sort_unstable();
        sample.dedup();
        assert_eq!(sample.len(), 200);
    }

    #[test]
    fn waitlist_is_small() {
        let mut g = rng(4);
        let (_, stats) = scasrs_sample_with_stats((0..100_000).collect(), 1_000, &mut g);
        // Expected wait-list is O(sqrt(s ln 1/δ)) ≈ a few hundred; allow
        // generous slack.
        assert!(
            stats.waitlisted < 5_000,
            "waitlist unexpectedly large: {}",
            stats.waitlisted
        );
        assert!(stats.accepted_directly <= 1_000);
    }

    #[test]
    fn selection_is_approximately_uniform() {
        const TRIALS: usize = 4_000;
        const N: usize = 40;
        const S: usize = 10;
        let mut counts = [0u32; N];
        let mut g = rng(5);
        for _ in 0..TRIALS {
            for x in scasrs_sample((0..N).collect(), S, &mut g) {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * S as f64 / N as f64;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "item {x}: count {c} vs expected {expected}");
        }
    }

    #[test]
    fn naive_random_sort_agrees_on_size_and_uniformity() {
        const TRIALS: usize = 4_000;
        const N: usize = 30;
        const S: usize = 6;
        let mut counts = [0u32; N];
        let mut g = rng(6);
        for _ in 0..TRIALS {
            let sample = random_sort_sample((0..N).collect(), S, &mut g);
            assert_eq!(sample.len(), S);
            for x in sample {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * S as f64 / N as f64;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "item {x}: count {c} vs expected {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn thresholds_reject_empty_population() {
        let _ = scasrs_thresholds(1, 0, SCASRS_DELTA);
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = ScasrsStats {
            accepted_directly: 1,
            waitlisted: 2,
            rejected_directly: 3,
        };
        a.merge(ScasrsStats {
            accepted_directly: 10,
            waitlisted: 20,
            rejected_directly: 30,
        });
        assert_eq!(a.accepted_directly, 11);
        assert_eq!(a.waitlisted, 22);
        assert_eq!(a.rejected_directly, 33);
    }

    #[test]
    fn merged_srs_is_uniform_over_combined_population() {
        // Shard A sampled 4 of 10 (items 0..10), shard B 4 of 20
        // (items 10..30); the merged 4-of-30 must include every original
        // item with probability ~4/30.
        const TRIALS: usize = 30_000;
        const S: usize = 4;
        let mut counts = [0u32; 30];
        let mut g = rng(9);
        for _ in 0..TRIALS {
            let a = scasrs_sample((0..10).collect::<Vec<usize>>(), S, &mut g);
            let b = scasrs_sample((10..30).collect::<Vec<usize>>(), S, &mut g);
            let merged = merge_srs_samples(a, 10, b, 20, S, &mut g);
            assert_eq!(merged.len(), S);
            for x in merged {
                counts[x] += 1;
            }
        }
        let expected = TRIALS as f64 * S as f64 / 30.0;
        for (x, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "item {x}: count {c} vs expected {expected}");
        }
    }
}
