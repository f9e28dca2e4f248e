//! Property-based tests for the batched engine: every transformation must
//! agree with its sequential reference implementation for arbitrary data,
//! partitioning and cluster shapes.

use proptest::prelude::*;
use sa_batched::{Cluster, Pds};
use std::collections::HashMap;

fn cluster() -> Cluster {
    // Small but parallel; shapes with more workers are exercised in unit
    // tests (property iterations dominate runtime here).
    Cluster::new(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// map on the engine == map on a Vec, independent of partitioning.
    #[test]
    fn map_matches_sequential(
        data in proptest::collection::vec(any::<i32>(), 0..500),
        parts in 1usize..9,
    ) {
        let c = cluster();
        let expected: Vec<i64> = data.iter().map(|&x| i64::from(x) * 3 - 1).collect();
        let got = if data.is_empty() {
            // from_vec requires ≥1 partition; empty data still works.
            Pds::from_vec(data.clone(), parts).map(&c, |x| i64::from(x) * 3 - 1).collect()
        } else {
            Pds::from_vec(data.clone(), parts).map(&c, |x| i64::from(x) * 3 - 1).collect()
        };
        prop_assert_eq!(got, expected);
    }

    /// A filtering map_partitions keeps exactly the matching elements, in
    /// order.
    #[test]
    fn filter_matches_sequential(
        data in proptest::collection::vec(any::<u16>(), 0..500),
        parts in 1usize..6,
        modulus in 2u16..7,
    ) {
        let c = cluster();
        let expected: Vec<u16> = data.iter().copied().filter(|x| x % modulus == 0).collect();
        let got = Pds::from_vec(data, parts)
            .map_partitions(&c, move |_, part| {
                part.into_iter().filter(|x| x % modulus == 0).collect()
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Folding each partition and combining the partials on the driver
    /// (the native pane's shape) computes the same fold as a plain
    /// iterator.
    #[test]
    fn aggregate_matches_fold(
        data in proptest::collection::vec(-1000i64..1000, 0..400),
        parts in 1usize..5,
    ) {
        let c = cluster();
        let expected: i64 = data.iter().sum();
        let got: i64 = Pds::from_vec(data, parts)
            .map_partitions(&c, |_, part| vec![part.into_iter().sum::<i64>()])
            .collect()
            .into_iter()
            .sum();
        prop_assert_eq!(got, expected);
    }

    /// group_by_key partitions the multiset exactly: no key lost, no value
    /// duplicated, regardless of cluster topology.
    #[test]
    fn group_by_key_is_a_partition(
        data in proptest::collection::vec((0u32..12, any::<i32>()), 0..400),
        parts in 1usize..6,
        nodes in 1usize..4,
    ) {
        let c = Cluster::with_topology(nodes, 2);
        let mut expected: HashMap<u32, Vec<i32>> = HashMap::new();
        for &(k, v) in &data {
            expected.entry(k).or_default().push(v);
        }
        let grouped = Pds::from_vec(data, parts).group_by_key(&c).collect();
        prop_assert_eq!(grouped.len(), expected.len());
        for (k, mut vals) in grouped {
            let mut want = expected.remove(&k).expect("key existed in input");
            vals.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(vals, want, "key {}", k);
        }
    }

    /// sample_exact returns exactly min(k, n) distinct elements of the
    /// input.
    #[test]
    fn sample_exact_size_and_membership(
        n in 0usize..2000,
        k in 0usize..600,
        parts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let c = cluster();
        let mut got = Pds::from_vec((0..n).collect::<Vec<_>>(), parts)
            .sample_exact(&c, k, seed)
            .collect();
        prop_assert_eq!(got.len(), k.min(n));
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got.len(), k.min(n));
        prop_assert!(got.iter().all(|&x| x < n));
    }
}

/// A panicking task must not deadlock the pool; the stage reports the
/// failure by panicking on the driver thread.
#[test]
fn panicking_task_fails_the_stage_not_the_pool() {
    let c = Cluster::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run(vec![0u32, 1, 2, 3], |_, x| {
            assert!(x != 2, "injected failure");
            x
        })
    }));
    assert!(result.is_err(), "stage with a panicking task must fail");
    // The pool survives for subsequent stages.
    let ok = c.run(vec![10u32, 20], |_, x| x + 1);
    assert_eq!(ok, vec![11, 21]);
}
