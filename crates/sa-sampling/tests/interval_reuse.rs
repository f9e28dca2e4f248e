//! What `OasrsSampler` keeps across an interval boundary — the stratum
//! table, each stratum's parked item buffer and the flat capacity plan —
//! must be invisible. These properties drive samplers through
//! multi-interval histories under every sizing policy, with strata that
//! vanish for a pane and come back and `SharedTotal` rebalances, and check
//! that
//!
//! * the lending close hands out exactly what the owned close returns, and
//! * a sampler stripped of its kept state at every boundary (a wire round
//!   trip: decoded samplers hold no parked buffers and no idle table) draws
//!   the same samples as one that keeps it.

use proptest::prelude::*;
use sa_sampling::{OasrsSampler, SizingPolicy};
use sa_types::{
    EventTime, StratifiedSample, StratumId, StratumSample, StreamItem, WireDecode, WireEncode,
};

/// One of the three sizing policies, from two random knobs.
fn pick_policy(kind: u8, n: usize) -> SizingPolicy {
    match kind % 3 {
        0 => SizingPolicy::PerStratum(n),
        1 => SizingPolicy::SharedTotal(n * 4),
        _ => SizingPolicy::FractionOfPrevious {
            fraction: 0.05 + f64::from(kind) / 512.0,
            initial: n,
        },
    }
}

/// Feeds one interval's runs: `(stratum, count)` pairs, alternating
/// between per-item and batch observation so both admission paths run.
fn feed(sampler: &mut OasrsSampler<f64>, runs: &[(u32, u32)], interval: usize) {
    for (r, &(stratum, count)) in runs.iter().enumerate() {
        let values = (0..count).map(|i| (interval * 10_000 + r * 100) as f64 + f64::from(i));
        if r % 2 == 0 {
            for v in values {
                sampler.observe(StratumId(stratum), v);
            }
        } else {
            let mut batch = values
                .map(|v| StreamItem::new(StratumId(stratum), EventTime::from_millis(0), v))
                .collect();
            sampler.observe_batch(&mut batch);
        }
    }
}

/// Closes an interval through the lending close, copying what it lends.
fn lend(sampler: &mut OasrsSampler<f64>) -> StratifiedSample<f64> {
    let mut out = StratifiedSample::new();
    sampler.finish_interval_with(|stratum, items, seen, capacity| {
        out.push(StratumSample::new(stratum, items.to_vec(), seen, capacity));
    });
    out
}

/// Up to eight intervals of up to ten runs over twelve strata, so most
/// strata skip some intervals and come back in later ones.
fn histories() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..12, 0u32..64), 0..10), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a) At every boundary, the lending close lends exactly the strata,
    /// items, counters and capacities that `finish_interval` returns on an
    /// identical clone, and leaves the same state behind; a sampler that
    /// only ever closes by ownership agrees interval by interval.
    #[test]
    fn lending_close_lends_what_the_owned_close_returns(
        history in histories(),
        kind in any::<u8>(),
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let policy = pick_policy(kind, n);
        let mut lender = OasrsSampler::new(policy, seed);
        let mut owner = OasrsSampler::new(policy, seed);
        for (i, runs) in history.iter().enumerate() {
            feed(&mut lender, runs, i);
            feed(&mut owner, runs, i);
            let mut twin = lender.clone();
            let owned = twin.finish_interval();
            let lent = lend(&mut lender);
            prop_assert_eq!(&lent, &owned, "interval {}", i);
            prop_assert_eq!(&lender, &twin, "state after interval {}", i);
            prop_assert_eq!(&owner.finish_interval(), &owned, "interval {}", i);
        }
    }

    /// (b) A sampler that makes a wire round trip at every boundary — and
    /// so holds no parked buffers and no idle table — produces the same
    /// samples interval by interval as one that keeps them.
    #[test]
    fn parked_state_carries_nothing(
        history in histories(),
        kind in any::<u8>(),
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let policy = pick_policy(kind, n);
        let mut keeper = OasrsSampler::new(policy, seed);
        let mut tripper = OasrsSampler::new(policy, seed);
        for (i, runs) in history.iter().enumerate() {
            feed(&mut keeper, runs, i);
            feed(&mut tripper, runs, i);
            prop_assert_eq!(lend(&mut keeper), tripper.finish_interval(), "interval {}", i);
            tripper = OasrsSampler::from_wire_bytes(&tripper.to_wire_bytes()).unwrap();
            prop_assert_eq!(&keeper, &tripper, "state after interval {}", i);
            prop_assert_eq!(keeper.to_wire_bytes(), tripper.to_wire_bytes());
        }
    }
}
