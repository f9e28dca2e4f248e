//! Stratified samples: Spark's exact stratified sampler — the paper's
//! improved STS baseline (§4.1.1) — and the weighted merges of shard-local
//! stratified samples.
//!
//! Spark's `sampleByKeyExact(fractions)` draws exactly `⌈f·C_k⌉` items per
//! stratum by running ScaSRS within each stratum, which requires knowing
//! the stratum counts (a full pass / groupBy) first. It operates on
//! *already grouped* data: in a real Spark job the grouping is a
//! `groupBy(strata)` shuffle with worker synchronization, which is exactly
//! the overhead StreamApprox avoids (§4.1). The batched engine in
//! `sa-batched` runs it per partition behind a real hash shuffle so the
//! baseline pays that cost honestly.

use crate::reservoir::weighted_union;
use crate::scasrs::scasrs_sample;
use rand::Rng;
use sa_types::{StratifiedSample, StratumId, StratumSample};

/// Exact per-stratum sampling (Spark's `sampleByKeyExact`): draws exactly
/// `⌈fraction · C_k⌉` items from each stratum via ScaSRS.
///
/// This is the more accurate but more expensive baseline: on top of the
/// grouping shuffle it runs a per-stratum random sort. The per-stratum
/// sample size stays *proportional to the stratum size*, which the paper
/// identifies as the reason STS cannot keep up with OASRS's fixed-size
/// reservoirs throughput-wise (§5.2).
///
/// # Example
///
/// ```
/// use sa_sampling::sample_by_key_exact;
/// use sa_types::StratumId;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(2);
/// let groups = vec![
///     (StratumId(0), (0..100).collect::<Vec<i32>>()),
///     (StratumId(1), (0..10).collect::<Vec<i32>>()),
/// ];
/// let sample = sample_by_key_exact(groups, 0.3, &mut rng);
/// assert_eq!(sample.stratum(StratumId(0)).unwrap().sample_size(), 30);
/// assert_eq!(sample.stratum(StratumId(1)).unwrap().sample_size(), 3);
/// ```
///
/// # Panics
///
/// Panics if `fraction` is outside `(0, 1]`.
pub fn sample_by_key_exact<T, R: Rng + ?Sized>(
    groups: Vec<(StratumId, Vec<T>)>,
    fraction: f64,
    rng: &mut R,
) -> StratifiedSample<T> {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "sampling fraction must be in (0, 1]"
    );
    let mut out = StratifiedSample::new();
    for (stratum, items) in groups {
        let population = items.len() as u64;
        let target = ((population as f64 * fraction).ceil() as usize).min(items.len());
        let selected = scasrs_sample(items, target, rng);
        out.push(StratumSample::new(
            stratum,
            selected,
            population,
            target.max(1),
        ));
    }
    out
}

/// Merges two samples of the *same stratum* drawn over disjoint portions
/// of its sub-stream into one sample of at most `capacity` items, via the
/// seen-count-weighted reservoir union (the per-stratum step of
/// [`merge_stratified`]). Populations sum; inclusion probabilities stay
/// uniform over the combined sub-stream.
///
/// # Panics
///
/// Panics if the two samples describe different strata.
pub fn merge_stratum_samples<T, R: Rng + ?Sized>(
    a: StratumSample<T>,
    b: StratumSample<T>,
    capacity: usize,
    rng: &mut R,
) -> StratumSample<T> {
    assert_eq!(
        a.stratum, b.stratum,
        "cannot merge samples of different strata"
    );
    let stratum = a.stratum;
    let population = a.population + b.population;
    let items = weighted_union(a.items, a.population, b.items, b.population, capacity, rng);
    StratumSample::new(stratum, items, population, capacity)
}

/// Merges two stratified samples drawn by shard-local samplers that each
/// ran at *full* per-stratum capacity over disjoint portions of one
/// stream — the sample-level form of `OasrsSampler::merge_with`.
///
/// Strata present on both sides are united down to the larger of their two
/// capacities by [`merge_stratum_samples`]; strata only one side saw pass
/// through unchanged. Contrast with `StratifiedSample::union` (§3.2),
/// which concatenates per-worker reservoirs of *split* capacity `N/w` and
/// therefore sums capacities instead.
pub fn merge_stratified<T, R: Rng + ?Sized>(
    a: StratifiedSample<T>,
    b: StratifiedSample<T>,
    rng: &mut R,
) -> StratifiedSample<T> {
    let mut out = StratifiedSample::new();
    let mut rhs = b.into_strata().into_iter().peekable();
    for sa in a.into_strata() {
        while rhs
            .peek()
            .is_some_and(|sb: &StratumSample<T>| sb.stratum < sa.stratum)
        {
            out.push(rhs.next().expect("peeked"));
        }
        if rhs.peek().is_some_and(|sb| sb.stratum == sa.stratum) {
            let sb = rhs.next().expect("peeked");
            let capacity = sa.capacity.max(sb.capacity);
            out.push(merge_stratum_samples(sa, sb, capacity, rng));
        } else {
            out.push(sa);
        }
    }
    for sb in rhs {
        out.push(sb);
    }
    out
}

/// Folds any number of shard-local stratified samples into one, merging in
/// the order given — callers pass shards in a canonical order (ascending
/// shard index) so the RNG draws, and therefore the run, are reproducible.
pub fn merge_all_stratified<T, R: Rng + ?Sized>(
    parts: impl IntoIterator<Item = StratifiedSample<T>>,
    rng: &mut R,
) -> StratifiedSample<T> {
    let mut merged: Option<StratifiedSample<T>> = None;
    for part in parts {
        merged = Some(match merged {
            None => part,
            Some(acc) => merge_stratified(acc, part, rng),
        });
    }
    merged.unwrap_or_else(StratifiedSample::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn groups(sizes: &[(u32, usize)]) -> Vec<(StratumId, Vec<usize>)> {
        sizes
            .iter()
            .map(|&(k, n)| (StratumId(k), (0..n).collect()))
            .collect()
    }

    #[test]
    fn exact_sampler_hits_exact_sizes() {
        let mut g = rng(1);
        let sample = sample_by_key_exact(groups(&[(0, 1000), (1, 50), (2, 3)]), 0.2, &mut g);
        assert_eq!(sample.stratum(StratumId(0)).unwrap().sample_size(), 200);
        assert_eq!(sample.stratum(StratumId(1)).unwrap().sample_size(), 10);
        // ceil(0.2 * 3) = 1
        assert_eq!(sample.stratum(StratumId(2)).unwrap().sample_size(), 1);
    }

    #[test]
    fn exact_sampler_is_proportional_unlike_oasrs() {
        // The defining contrast with OASRS: a 10× bigger stratum gets a 10×
        // bigger sample.
        let mut g = rng(2);
        let sample = sample_by_key_exact(groups(&[(0, 10_000), (1, 1_000)]), 0.5, &mut g);
        let y0 = sample.stratum(StratumId(0)).unwrap().sample_size();
        let y1 = sample.stratum(StratumId(1)).unwrap().sample_size();
        assert_eq!(y0, 10 * y1);
    }

    #[test]
    fn no_stratum_is_dropped() {
        let mut g = rng(4);
        let sample = sample_by_key_exact(groups(&[(0, 10_000), (7, 1)]), 0.1, &mut g);
        assert_eq!(sample.num_strata(), 2);
        assert_eq!(sample.stratum(StratumId(7)).unwrap().sample_size(), 1);
    }

    #[test]
    fn weights_reflect_populations() {
        let mut g = rng(5);
        let sample = sample_by_key_exact(groups(&[(0, 100)]), 0.25, &mut g);
        let s0 = sample.stratum(StratumId(0)).unwrap();
        // Y = 25 of C = 100 → weight 4.
        assert!((s0.weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn full_fraction_keeps_everything() {
        let mut g = rng(6);
        let sample = sample_by_key_exact(groups(&[(0, 57)]), 1.0, &mut g);
        let s0 = sample.stratum(StratumId(0)).unwrap();
        assert_eq!(s0.sample_size(), 57);
        assert_eq!(s0.weight(), 1.0);
    }

    #[test]
    fn merge_stratum_samples_sums_population_and_respects_capacity() {
        let mut g = rng(9);
        let a = StratumSample::new(StratumId(0), vec![1.0, 2.0, 3.0], 9, 3);
        let b = StratumSample::new(StratumId(0), vec![4.0, 5.0, 6.0], 6, 3);
        let m = merge_stratum_samples(a, b, 3, &mut g);
        assert_eq!(m.population, 15);
        assert_eq!(m.sample_size(), 3);
        assert_eq!(m.capacity, 3);
        assert!((m.weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_stratified_walks_disjoint_and_shared_strata() {
        let mut g = rng(10);
        let a: StratifiedSample<f64> = [
            StratumSample::new(StratumId(0), vec![1.0], 4, 2),
            StratumSample::new(StratumId(2), vec![2.0, 3.0], 8, 2),
        ]
        .into_iter()
        .collect();
        let b: StratifiedSample<f64> = [
            StratumSample::new(StratumId(1), vec![9.0], 1, 2),
            StratumSample::new(StratumId(2), vec![4.0, 5.0], 6, 2),
        ]
        .into_iter()
        .collect();
        let m = merge_stratified(a, b, &mut g);
        assert_eq!(m.num_strata(), 3);
        assert_eq!(m.stratum(StratumId(0)).unwrap().population, 4);
        assert_eq!(m.stratum(StratumId(1)).unwrap().items, vec![9.0]);
        let shared = m.stratum(StratumId(2)).unwrap();
        assert_eq!(shared.population, 14);
        assert_eq!(shared.sample_size(), 2);
        assert_eq!(shared.capacity, 2);
    }

    #[test]
    fn merge_all_stratified_folds_in_order() {
        let mut g = rng(11);
        let parts: Vec<StratifiedSample<f64>> = (0..3)
            .map(|i| {
                [StratumSample::new(StratumId(0), vec![f64::from(i)], 5, 2)]
                    .into_iter()
                    .collect()
            })
            .collect();
        let m = merge_all_stratified(parts, &mut g);
        let s = m.stratum(StratumId(0)).unwrap();
        assert_eq!(s.population, 15);
        assert_eq!(s.sample_size(), 2);
        let empty: Vec<StratifiedSample<f64>> = Vec::new();
        assert!(merge_all_stratified(empty, &mut g).is_empty());
    }

    #[test]
    #[should_panic(expected = "sampling fraction must be in (0, 1]")]
    fn rejects_zero_fraction() {
        let mut g = rng(7);
        let _ = sample_by_key_exact(groups(&[(0, 10)]), 0.0, &mut g);
    }
}
