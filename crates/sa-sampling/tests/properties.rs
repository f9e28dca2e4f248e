//! Property-based tests for the sampling algorithms: invariants that must
//! hold for *every* stream shape, capacity and seed.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_sampling::{
    merge_all_stratified, sample_by_key_exact, scasrs_sample, scasrs_sample_with_stats,
    scasrs_thresholds, OasrsSampler, Reservoir, SizingPolicy, SCASRS_DELTA,
};
use sa_types::{StratumId, StratumSample};
use std::collections::HashMap;

proptest! {
    /// A reservoir always holds exactly `min(seen, capacity)` items and its
    /// contents are a sub-multiset of the stream.
    #[test]
    fn reservoir_size_and_membership(
        stream in proptest::collection::vec(0u32..1_000, 0..400),
        cap in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut res = Reservoir::new(cap);
        for &x in &stream {
            res.observe(x, &mut rng);
        }
        prop_assert_eq!(res.len(), stream.len().min(cap));
        prop_assert_eq!(res.seen(), stream.len() as u64);

        let mut pool: HashMap<u32, usize> = HashMap::new();
        for &x in &stream {
            *pool.entry(x).or_default() += 1;
        }
        for &x in res.items() {
            let slot = pool.get_mut(&x);
            prop_assert!(slot.is_some(), "sampled item {} not in stream", x);
            let c = slot.unwrap();
            prop_assert!(*c > 0, "item {} sampled more often than it appeared", x);
            *c -= 1;
        }
    }

    /// Shrinking a reservoir never invents items and lands exactly on the
    /// new capacity.
    #[test]
    fn reservoir_shrink_is_a_subset(
        n in 1usize..200,
        cap in 2usize..50,
        new_cap_rel in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut res = Reservoir::new(cap);
        for x in 0..n as u32 {
            res.observe(x, &mut rng);
        }
        let before: Vec<u32> = res.items().to_vec();
        let new_cap = ((cap as f64 * new_cap_rel) as usize).max(1);
        res.shrink_to(new_cap, &mut rng);
        prop_assert_eq!(res.len(), before.len().min(new_cap));
        for x in res.items() {
            prop_assert!(before.contains(x));
        }
    }

    /// Merging reservoirs over disjoint streams preserves the total `seen`
    /// counter and never exceeds the target capacity.
    #[test]
    fn reservoir_merge_invariants(
        na in 0usize..200,
        nb in 0usize..200,
        cap in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = Reservoir::new(cap);
        let mut b = Reservoir::new(cap);
        for x in 0..na as u32 {
            a.observe(x, &mut rng);
        }
        for x in 1_000..(1_000 + nb as u32) {
            b.observe(x, &mut rng);
        }
        let shard = |r: Reservoir<u32>| {
            let (items, seen) = r.into_parts();
            [StratumSample::new(StratumId(0), items, seen, cap)].into_iter().collect()
        };
        let merged = merge_all_stratified([shard(a), shard(b)], &mut rng);
        prop_assert_eq!(merged.total_population(), (na + nb) as u64);
        let held = merged.total_sampled() as usize;
        prop_assert_eq!(held, (na + nb).min(cap).min(na.min(cap) + nb.min(cap)));
    }

    /// OASRS bookkeeping: per-stratum counters equal arrivals, sample sizes
    /// equal `min(C_i, N_i)`, and weights follow Equation 1.
    #[test]
    fn oasrs_counters_and_weights(
        arrivals in proptest::collection::vec(0u32..8, 0..500),
        cap in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for (i, &s) in arrivals.iter().enumerate() {
            oasrs.observe(StratumId(s), i as f64);
            *truth.entry(s).or_default() += 1;
        }
        let sample = oasrs.finish_interval();
        prop_assert_eq!(sample.num_strata(), truth.len());
        for (&s, &c) in &truth {
            let st = sample.stratum(StratumId(s)).unwrap();
            prop_assert_eq!(st.population, c);
            prop_assert_eq!(st.sample_size() as u64, c.min(cap as u64));
            let expected_w = if c > cap as u64 { c as f64 / cap as f64 } else { 1.0 };
            prop_assert!((st.weight() - expected_w).abs() < 1e-12);
        }
    }

    /// The weighted per-stratum estimate `Y_i * W_i` recovers `C_i` exactly
    /// for counting queries (each reservoir item represents `W_i` originals).
    #[test]
    fn oasrs_count_reconstruction_is_exact(
        counts in proptest::collection::vec(1u64..300, 1..6),
        cap in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut oasrs = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed);
        for (s, &c) in counts.iter().enumerate() {
            for v in 0..c {
                oasrs.observe(StratumId(s as u32), v as f64);
            }
        }
        let sample = oasrs.finish_interval();
        for (s, &c) in counts.iter().enumerate() {
            let st = sample.stratum(StratumId(s as u32)).unwrap();
            let reconstructed = st.sample_size() as f64 * st.weight();
            prop_assert!(
                (reconstructed - c as f64).abs() < 1e-9 * c as f64 + 1e-9,
                "stratum {}: {} vs {}",
                s,
                reconstructed,
                c
            );
        }
    }

    /// Distributed OASRS (shard + union) preserves the global counters and
    /// never exceeds the summed capacity.
    #[test]
    fn oasrs_distributed_union_bookkeeping(
        per_worker in proptest::collection::vec(0u64..200, 1..5),
        cap in 1usize..24,
        seed in any::<u64>(),
    ) {
        let w = per_worker.len();
        let mut global: Option<sa_types::StratifiedSample<f64>> = None;
        for (wi, &n) in per_worker.iter().enumerate() {
            let mut s = OasrsSampler::for_worker(SizingPolicy::PerStratum(cap), seed, wi, w);
            for v in 0..n {
                s.observe(StratumId(0), v as f64);
            }
            let part = s.finish_interval();
            match &mut global {
                None => global = Some(part),
                Some(g) => g.union(part),
            }
        }
        let g = global.unwrap();
        let total: u64 = per_worker.iter().sum();
        if total == 0 {
            // Workers that saw nothing produce empty samples (no stratum entry
            // unless it observed at least one item).
            prop_assert!(g.total_population() == 0);
        } else {
            let st = g.stratum(StratumId(0)).unwrap();
            prop_assert_eq!(st.population, total);
            prop_assert!(st.sample_size() <= st.capacity);
        }
    }

    /// ScaSRS always returns exactly `min(s, n)` distinct input positions.
    #[test]
    fn scasrs_exact_size_and_distinctness(
        n in 0usize..3_000,
        s in 0usize..512,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sample = scasrs_sample((0..n).collect(), s, &mut rng);
        prop_assert_eq!(sample.len(), s.min(n));
        sample.sort_unstable();
        sample.dedup();
        prop_assert_eq!(sample.len(), s.min(n));
    }

    /// The work counters partition the input.
    #[test]
    fn scasrs_stats_partition_input(
        n in 1usize..2_000,
        s in 1usize..256,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (_, stats) = scasrs_sample_with_stats((0..n).collect(), s, &mut rng);
        if s < n {
            prop_assert_eq!(
                stats.accepted_directly + stats.waitlisted + stats.rejected_directly,
                n
            );
        } else {
            prop_assert_eq!(stats.accepted_directly, n);
        }
    }

    /// Thresholds always bracket p and stay in [0, 1].
    #[test]
    fn scasrs_thresholds_bracket(
        n in 1usize..1_000_000,
        frac in 0.0001f64..0.9999,
    ) {
        let s = ((n as f64 * frac) as usize).max(1).min(n);
        let (l, h) = scasrs_thresholds(s, n, SCASRS_DELTA);
        let p = s as f64 / n as f64;
        prop_assert!((0.0..=1.0).contains(&l));
        prop_assert!((0.0..=1.0).contains(&h));
        prop_assert!(l <= p + 1e-12);
        prop_assert!(h >= p - 1e-12);
    }

    /// `SizingPolicy::SharedTotal`: whenever a new stratum appears
    /// mid-interval and triggers a shrink of the incumbents, the summed
    /// holdings never exceed the budget (unless there are more strata than
    /// budget slots, where every stratum keeps its guaranteed single slot).
    #[test]
    fn shared_total_capacity_never_exceeds_budget(
        arrivals in proptest::collection::vec(0u32..10, 1..600),
        budget in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut oasrs = OasrsSampler::new(SizingPolicy::SharedTotal(budget), seed);
        for (i, &s) in arrivals.iter().enumerate() {
            oasrs.observe(StratumId(s), i as f64);
            let strata = oasrs.num_strata();
            prop_assert!(
                oasrs.total_held() <= budget.max(strata) as u64,
                "after item {}: holding {} of budget {} over {} strata",
                i,
                oasrs.total_held(),
                budget,
                strata
            );
        }
        let sample = oasrs.finish_interval();
        let strata = sample.num_strata();
        prop_assert!(sample.total_sampled() <= budget.max(strata) as u64);
    }

    /// After mid-interval shrinks, every stratum's sample is still a
    /// sub-multiset of what that stratum actually sent, sized
    /// `min(C_i, N_i)` for its rebalanced capacity, with Equation-1
    /// weights.
    #[test]
    fn shared_total_shrink_keeps_samples_consistent(
        arrivals in proptest::collection::vec(0u32..6, 1..500),
        budget in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut oasrs = OasrsSampler::new(SizingPolicy::SharedTotal(budget), seed);
        let mut truth: HashMap<u32, Vec<f64>> = HashMap::new();
        for (i, &s) in arrivals.iter().enumerate() {
            oasrs.observe(StratumId(s), i as f64);
            truth.entry(s).or_default().push(i as f64);
        }
        let sample = oasrs.finish_interval();
        for (&s, sent) in &truth {
            let st = sample.stratum(StratumId(s)).unwrap();
            prop_assert_eq!(st.population, sent.len() as u64);
            prop_assert_eq!(
                st.sample_size() as usize,
                sent.len().min(st.capacity),
                "stratum {}",
                s
            );
            for v in &st.items {
                prop_assert!(sent.contains(v), "stratum {}: {} not sent", s, v);
            }
            let expected_w = (sent.len() as f64 / st.capacity as f64).max(1.0);
            prop_assert!((st.weight() - expected_w).abs() < 1e-12);
        }
    }

    /// OASRS merge bookkeeping: for every pair of shard-local streams,
    /// merging their finished samples sums per-stratum populations, holds
    /// the merged sample at `min(C_i, N)` for the one shared budget `N`,
    /// keeps the items a sub-multiset of what the shards actually sent, and
    /// yields Equation-1 weights over the combined counters.
    #[test]
    fn oasrs_merge_preserves_counters_and_membership(
        arrivals_a in proptest::collection::vec(0u32..5, 0..300),
        arrivals_b in proptest::collection::vec(0u32..5, 0..300),
        cap in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut a = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed);
        let mut b = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed ^ 0xD1CE);
        let mut sent: HashMap<u32, Vec<f64>> = HashMap::new();
        for (i, &s) in arrivals_a.iter().enumerate() {
            a.observe(StratumId(s), i as f64);
            sent.entry(s).or_default().push(i as f64);
        }
        for (i, &s) in arrivals_b.iter().enumerate() {
            let v = 10_000.0 + i as f64;
            b.observe(StratumId(s), v);
            sent.entry(s).or_default().push(v);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let merged = merge_all_stratified([a.finish_interval(), b.finish_interval()], &mut rng);
        prop_assert_eq!(merged.num_strata(), sent.len());
        for (&s, stream) in &sent {
            let st = merged.stratum(StratumId(s)).unwrap();
            prop_assert_eq!(st.population, stream.len() as u64);
            prop_assert_eq!(st.sample_size(), stream.len().min(cap), "stratum {}", s);
            for v in &st.items {
                prop_assert!(stream.contains(v), "stratum {}: {} not sent", s, v);
            }
            let expected_w = (stream.len() as f64 / cap as f64).max(1.0);
            prop_assert!((st.weight() - expected_w).abs() < 1e-12);
        }
    }

    /// Merging is commutative under canonical ordering: whichever
    /// side absorbs the other, every per-stratum counter of the merged
    /// sample — population, capacity, sample size, weight — is identical
    /// (the selected items differ only by the RNG draw).
    #[test]
    fn oasrs_merge_counters_commute(
        arrivals_a in proptest::collection::vec(0u32..4, 0..250),
        arrivals_b in proptest::collection::vec(0u32..4, 0..250),
        cap in 1usize..12,
        seed in any::<u64>(),
    ) {
        let build = |arrivals: &[u32], s: u64| {
            let mut o = OasrsSampler::new(SizingPolicy::PerStratum(cap), s);
            for (i, &st) in arrivals.iter().enumerate() {
                o.observe(StratumId(st), i as f64);
            }
            o.finish_interval()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b) = (build(&arrivals_a, seed), build(&arrivals_b, seed ^ 1));
        let ab = merge_all_stratified([a.clone(), b.clone()], &mut rng);
        let ba = merge_all_stratified([b, a], &mut rng);
        prop_assert_eq!(ab.num_strata(), ba.num_strata());
        for (x, y) in ab.iter().zip(ba.iter()) {
            prop_assert_eq!(x.stratum, y.stratum);
            prop_assert_eq!(x.population, y.population);
            prop_assert_eq!(x.capacity, y.capacity);
            prop_assert_eq!(x.sample_size(), y.sample_size());
            prop_assert!((x.weight() - y.weight()).abs() < 1e-12);
        }
    }

    /// Folding any number of shard samples through `merge_all_stratified`
    /// preserves the global per-stratum population and bounds the merged
    /// sample by the largest shard capacity.
    #[test]
    fn stratified_fold_preserves_global_counters(
        per_shard in proptest::collection::vec(0u64..200, 1..5),
        cap in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut parts = Vec::new();
        for (shard, &n) in per_shard.iter().enumerate() {
            let mut o = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed ^ shard as u64);
            for v in 0..n {
                o.observe(StratumId(0), v as f64);
            }
            parts.push(o.finish_interval());
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let merged = merge_all_stratified(parts, &mut rng);
        let total: u64 = per_shard.iter().sum();
        if total == 0 {
            prop_assert_eq!(merged.total_population(), 0);
        } else {
            let st = merged.stratum(StratumId(0)).unwrap();
            prop_assert_eq!(st.population, total);
            prop_assert_eq!(st.capacity, cap);
            prop_assert_eq!(st.sample_size() as u64, total.min(cap as u64));
        }
    }

    /// Exact stratified sampling hits `ceil(f * C_k)` in every stratum.
    #[test]
    fn sample_by_key_exact_sizes(
        sizes in proptest::collection::vec(1usize..400, 1..6),
        frac_pct in 1u32..=100,
        seed in any::<u64>(),
    ) {
        let f = frac_pct as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let groups: Vec<(StratumId, Vec<usize>)> = sizes
            .iter()
            .enumerate()
            .map(|(k, &n)| (StratumId(k as u32), (0..n).collect()))
            .collect();
        let sample = sample_by_key_exact(groups, f, &mut rng);
        for (k, &n) in sizes.iter().enumerate() {
            let st = sample.stratum(StratumId(k as u32)).unwrap();
            let expected = ((n as f64 * f).ceil() as usize).min(n);
            prop_assert_eq!(st.sample_size(), expected, "stratum {}", k);
            prop_assert_eq!(st.population, n as u64);
        }
    }
}

/// The estimator-facing guarantee of the mergeable-sampler layer: over
/// many trials, a merged shard pair's per-stratum sample reproduces the
/// sub-stream's mean and variance within tolerance — i.e. the weighted
/// union neither biases the estimate nor skews the dispersion the error
/// bounds are computed from. Each stream item must also keep a uniform
/// inclusion probability `N / C` across the shard boundary.
#[test]
fn merged_oasrs_samples_preserve_mean_variance_and_uniformity() {
    const TRIALS: usize = 8_000;
    const CAP: usize = 8;
    const STREAM: usize = 40; // split 24 / 16 across two unequal shards
    let values: Vec<f64> = (0..STREAM).map(|v| v as f64).collect();
    let true_mean = values.iter().sum::<f64>() / STREAM as f64;
    let true_var =
        values.iter().map(|v| (v - true_mean).powi(2)).sum::<f64>() / (STREAM as f64 - 1.0);
    let mut counts = [0u32; STREAM];
    let mut mean_sum = 0.0;
    let mut var_sum = 0.0;
    for t in 0..TRIALS {
        let mut a = OasrsSampler::new(SizingPolicy::PerStratum(CAP), t as u64);
        let mut b = OasrsSampler::new(SizingPolicy::PerStratum(CAP), (t as u64) ^ 0xABCD);
        for &v in &values[..24] {
            a.observe(StratumId(0), v);
        }
        for &v in &values[24..] {
            b.observe(StratumId(0), v);
        }
        let mut rng = SmallRng::seed_from_u64((t as u64) ^ 0x5EED);
        let merged = merge_all_stratified([a.finish_interval(), b.finish_interval()], &mut rng);
        let s = merged.stratum(StratumId(0)).unwrap();
        assert_eq!(s.population, STREAM as u64);
        assert_eq!(s.sample_size(), CAP);
        let m = s.items.iter().sum::<f64>() / CAP as f64;
        let v2 = s.items.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (CAP as f64 - 1.0);
        mean_sum += m;
        var_sum += v2;
        for &v in &s.items {
            counts[v as usize] += 1;
        }
    }
    let avg_mean = mean_sum / TRIALS as f64;
    let avg_var = var_sum / TRIALS as f64;
    assert!(
        (avg_mean - true_mean).abs() / true_mean < 0.02,
        "merged sample mean drifted: {avg_mean} vs {true_mean}"
    );
    assert!(
        (avg_var - true_var).abs() / true_var < 0.05,
        "merged sample variance drifted: {avg_var} vs {true_var}"
    );
    let expected = TRIALS as f64 * CAP as f64 / STREAM as f64;
    for (v, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expected).abs() / expected;
        assert!(
            dev < 0.08,
            "item {v}: inclusion count {c}, expected ~{expected} (dev {dev:.3})"
        );
    }
}

/// The uniform-eviction invariant behind `SharedTotal`'s mid-interval
/// shrink, checked statistically: evicting uniformly from a uniform sample
/// leaves a uniform sample, and continuing reservoir sampling afterwards
/// keeps it one. So every item a stratum sent — before or after the shrink
/// its reservoir suffered when a new stratum appeared — must end up in the
/// final sample with the same probability.
#[test]
fn shared_total_mid_interval_shrink_stays_uniform() {
    const TRIALS: usize = 6_000;
    const BUDGET: usize = 8; // stratum 0 alone: 8 slots; after stratum 1: 4
    const STREAM: usize = 20; // 10 before the shrink, 10 after
    let mut counts = [0u32; STREAM];
    for t in 0..TRIALS {
        let mut oasrs = OasrsSampler::new(SizingPolicy::SharedTotal(BUDGET), t as u64);
        for v in 0..10 {
            oasrs.observe(StratumId(0), v as f64);
        }
        // A new stratum appears mid-interval: stratum 0's reservoir is
        // uniformly evicted from 8 down to 4 slots.
        oasrs.observe(StratumId(1), -1.0);
        for v in 10..STREAM {
            oasrs.observe(StratumId(0), v as f64);
        }
        let sample = oasrs.finish_interval();
        let s0 = sample.stratum(StratumId(0)).unwrap();
        assert_eq!(s0.sample_size(), 4);
        assert_eq!(s0.population, STREAM as u64);
        for &v in &s0.items {
            counts[v as usize] += 1;
        }
    }
    let expected = TRIALS as f64 * 4.0 / STREAM as f64;
    for (v, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expected).abs() / expected;
        assert!(
            dev < 0.1,
            "item {v}: count {c}, expected ~{expected} (dev {dev:.3})"
        );
    }
}

proptest! {
    /// Chunk boundaries are invisible to the reservoir: any way of cutting
    /// a stream into batches produces bit-for-bit the per-item sampler
    /// state (same items, same `seen`, same RNG position).
    #[test]
    fn reservoir_batching_is_bit_equal_to_per_item(
        stream in proptest::collection::vec(0u32..1_000, 0..600),
        cuts in proptest::collection::vec(0usize..600, 0..8),
        cap in 1usize..48,
        seed in any::<u64>(),
    ) {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut per_item = Reservoir::new(cap);
        for &x in &stream {
            per_item.observe(x, &mut rng_a);
        }

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(stream.len())).collect();
        cuts.sort_unstable();
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let mut batched = Reservoir::new(cap);
        let mut prev = 0usize;
        for cut in cuts.into_iter().chain([stream.len()]) {
            batched.observe_batch(&stream[prev..cut], &mut rng_b);
            prev = cut;
        }
        prop_assert_eq!(&batched, &per_item);
        // And both RNGs sit at the same stream position afterwards.
        prop_assert_eq!(rand::Rng::gen::<u64>(&mut rng_a), rand::Rng::gen::<u64>(&mut rng_b));
    }

    /// Same invisibility one level up: `OasrsSampler::observe_batch` over
    /// arbitrary chunkings of an arbitrary stratum sequence equals the
    /// per-item fold bit for bit.
    #[test]
    fn oasrs_batching_is_bit_equal_to_per_item(
        arrivals in proptest::collection::vec(0u32..6, 0..500),
        cuts in proptest::collection::vec(0usize..500, 0..6),
        cap in 1usize..16,
        seed in any::<u64>(),
    ) {
        let items: Vec<sa_types::StreamItem<f64>> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &s)| sa_types::StreamItem::new(
                StratumId(s),
                sa_types::EventTime::from_millis(i as i64),
                i as f64,
            ))
            .collect();

        let mut per_item = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed);
        for item in items.clone() {
            per_item.observe_item(item);
        }

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(items.len())).collect();
        cuts.sort_unstable();
        let mut batched = OasrsSampler::new(SizingPolicy::PerStratum(cap), seed);
        let mut prev = 0usize;
        for cut in cuts.into_iter().chain([items.len()]) {
            batched.observe_batch(&mut items[prev..cut].to_vec());
            prev = cut;
        }
        prop_assert_eq!(batched.finish_interval(), per_item.finish_interval());
    }
}
