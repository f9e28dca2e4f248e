//! `Pds` — a partitioned dataset, the engine's RDD analogue.
//!
//! A [`Pds<T>`] holds its data as owned partitions and executes
//! transformations as parallel stages on a [`Cluster`]. Its operators are
//! the ones the batched engine's four systems run: narrow transformations
//! (`map`, `map_partitions`) run one task per partition with no data
//! movement; the wide `group_by_key` performs a real hash shuffle with a
//! stage barrier, and charges a simulated serialization cost (clone +
//! drop) for records that cross node boundaries — the synchronization the
//! paper blames for Spark-based STS's poor scaling (§4.1.1, §5.2); and the
//! two baseline samplers, `sample_exact` (SRS) and
//! `sample_stratified_exact` (STS), sit on top.
//!
//! Lineage tracking and fault tolerance are out of scope: the paper's
//! evaluation never kills workers, so recomputation machinery would be dead
//! weight in every measurement.

use crate::cluster::Cluster;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_sampling::{sample_by_key_exact, scasrs_thresholds, SCASRS_DELTA};
use sa_types::{StratifiedSample, StratumId};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::Arc;

/// A partitioned dataset executed on a [`Cluster`].
///
/// # Example
///
/// ```
/// use sa_batched::{Cluster, Pds};
///
/// let cluster = Cluster::new(4);
/// let pds = Pds::from_vec((0..1_000).collect::<Vec<u32>>(), 8);
/// let total: u64 = pds
///     .map(&cluster, |x| u64::from(x) * 2)
///     .collect()
///     .into_iter()
///     .sum();
/// assert_eq!(total, 999_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pds<T> {
    partitions: Vec<Vec<T>>,
}

impl<T: Send + 'static> Pds<T> {
    /// Splits a vector into `num_partitions` contiguous chunks.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn from_vec(data: Vec<T>, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "dataset needs at least one partition");
        let n = data.len();
        let chunk = n.div_ceil(num_partitions).max(1);
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(num_partitions);
        let mut data = data.into_iter();
        for _ in 0..num_partitions {
            partitions.push(data.by_ref().take(chunk).collect());
        }
        Pds { partitions }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of elements (local metadata, no job).
    pub fn count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }

    /// Concatenates all partitions on the driver.
    pub fn collect(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count() as usize);
        for p in self.partitions {
            out.extend(p);
        }
        out
    }

    /// Narrow transformation: applies `f` to every element, in parallel per
    /// partition.
    pub fn map<U, F>(self, cluster: &Cluster, f: F) -> Pds<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let partitions = cluster.run(self.partitions, move |_, part| {
            part.into_iter().map(|x| f(x)).collect::<Vec<U>>()
        });
        Pds { partitions }
    }

    /// Narrow transformation over whole partitions: `f` receives the
    /// partition index and its elements.
    pub fn map_partitions<U, F>(self, cluster: &Cluster, f: F) -> Pds<U>
    where
        U: Send + 'static,
        F: Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let partitions = cluster.run(self.partitions, move |i, part| f(i, part));
        Pds { partitions }
    }

    /// Exact-size simple random sample — the distributed ScaSRS behind
    /// Spark's `takeSample` and the paper's SRS baseline (§4.1.1): every
    /// partition assigns random keys and applies the two thresholds in
    /// parallel; the surviving wait-list is then **collected to the driver
    /// and sorted** — the synchronization point and sort bottleneck the
    /// paper describes.
    ///
    /// Returns the sampled items repartitioned over the original partition
    /// count.
    pub fn sample_exact(self, cluster: &Cluster, total: usize, seed: u64) -> Pds<T> {
        let n = self.count() as usize;
        let parts = self.num_partitions();
        if total >= n {
            return self;
        }
        if total == 0 {
            return Pds {
                partitions: vec![Vec::new()],
            };
        }
        let (low, high) = scasrs_thresholds(total, n, SCASRS_DELTA);
        // Map stage: threshold locally.
        let mapped = cluster.run(self.partitions, move |i, part: Vec<T>| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA511));
            let mut accepted = Vec::new();
            let mut waitlist: Vec<(f64, T)> = Vec::new();
            for item in part {
                let key: f64 = rng.gen();
                if key < low {
                    accepted.push(item);
                } else if key <= high {
                    waitlist.push((key, item));
                }
            }
            (accepted, waitlist)
        });
        // Driver: merge, sort the wait-list, fill up to `total`.
        let mut accepted = Vec::new();
        let mut waitlist = Vec::new();
        for (a, w) in mapped {
            accepted.extend(a);
            waitlist.extend(w);
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1D1);
        if accepted.len() < total {
            waitlist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
            let need = total - accepted.len();
            accepted.extend(waitlist.into_iter().take(need).map(|(_, t)| t));
        } else {
            while accepted.len() > total {
                let victim = rng.gen_range(0..accepted.len());
                accepted.swap_remove(victim);
            }
        }
        Pds::from_vec(accepted, parts)
    }
}

/// Simulates the serialization a Spark shuffle applies to every record it
/// moves (shuffle data is written serialized regardless of destination
/// locality): clone the record and drop the original, costing an
/// allocation/copy proportional to the payload. Cross-node moves pay it
/// twice (write + read over the wire).
fn simulate_transfer<T: Clone>(items: Vec<T>, hops: usize) -> Vec<T> {
    let mut moved = items;
    for _ in 0..hops {
        moved = moved.to_vec();
    }
    moved
}

impl<K, V> Pds<(K, V)>
where
    K: Hash + Eq + Clone + Send + 'static,
    V: Send + Clone + 'static,
{
    /// Wide transformation: groups values by key via a hash shuffle.
    ///
    /// Stage 1 hash-partitions every input partition's records into one
    /// bucket per output partition; the stage barrier is the workers'
    /// synchronization point. Stage 2 concatenates each output partition's
    /// buckets (paying a simulated shuffle serialization per record) and
    /// groups locally. Each key ends up wholly inside one partition.
    pub fn group_by_key(self, cluster: &Cluster) -> Pds<(K, Vec<V>)> {
        let out_parts = self.num_partitions();
        let buckets = self.shuffle_buckets(cluster, out_parts);
        let partitions = cluster.run(buckets, |_, shards: Vec<Vec<(K, V)>>| {
            let mut groups: HashMap<K, Vec<V>, BuildHasherDefault<DefaultHasher>> =
                HashMap::default();
            for shard in shards {
                for (k, v) in shard {
                    groups.entry(k).or_default().push(v);
                }
            }
            groups.into_iter().collect::<Vec<(K, Vec<V>)>>()
        });
        Pds { partitions }
    }

    /// The shuffle core: hash-partition map-side, transpose, and charge
    /// cross-node transfers. Returns, per output partition, the shards
    /// received from every input partition.
    fn shuffle_buckets(self, cluster: &Cluster, out_parts: usize) -> Vec<Vec<Vec<(K, V)>>> {
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        // Stage 1 (map side): bucket by key hash.
        let bucketed: Vec<Vec<Vec<(K, V)>>> =
            cluster.run(self.partitions, move |_, part: Vec<(K, V)>| {
                let mut buckets: Vec<Vec<(K, V)>> = (0..out_parts).map(|_| Vec::new()).collect();
                for (k, v) in part {
                    let b = (hasher.hash_one(&k) % out_parts as u64) as usize;
                    buckets[b].push((k, v));
                }
                buckets
            });
        // Barrier reached. Transpose buckets to their destination
        // partitions: every shuffled record pays one serialization (as in
        // Spark's shuffle write), and a second when it crosses nodes.
        let mut inbox: Vec<Vec<Vec<(K, V)>>> = (0..out_parts).map(|_| Vec::new()).collect();
        for (src, buckets) in bucketed.into_iter().enumerate() {
            for (dst, bucket) in buckets.into_iter().enumerate() {
                let src_node = cluster.node_of_partition(src);
                let dst_node = cluster.node_of_partition(dst);
                let hops = if src_node != dst_node { 2 } else { 1 };
                inbox[dst].push(simulate_transfer(bucket, hops));
            }
        }
        inbox
    }
}

impl<T: Send + Clone + 'static> Pds<(StratumId, T)> {
    /// The paper's Spark-based STS baseline (§4.1.1): `groupBy(strata)`
    /// (full shuffle) followed by per-stratum exact SRS via the random-sort
    /// method, keeping each stratum's sample proportional to its size.
    /// Returns the weighted stratified sample on the driver.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn sample_stratified_exact(
        self,
        cluster: &Cluster,
        fraction: f64,
        seed: u64,
    ) -> StratifiedSample<T> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "sampling fraction must be in (0, 1]"
        );
        let grouped = self.group_by_key(cluster);
        let sampled = cluster.run(
            grouped.partitions,
            move |i, groups: Vec<(StratumId, Vec<T>)>| {
                let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xBEE5));
                sample_by_key_exact(groups, fraction, &mut rng).into_strata()
            },
        );
        sampled.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(4)
    }

    #[test]
    fn from_vec_partitions_evenly() {
        let pds = Pds::from_vec((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(pds.num_partitions(), 3);
        assert_eq!(pds.count(), 10);
        let sizes: Vec<usize> = pds.partitions.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn from_vec_more_partitions_than_items() {
        let pds = Pds::from_vec(vec![1, 2], 5);
        assert_eq!(pds.num_partitions(), 5);
        assert_eq!(pds.count(), 2);
    }

    #[test]
    fn map_filter_roundtrip() {
        // A filter is a narrow `map_partitions`; both stages keep order.
        let c = cluster();
        let out = Pds::from_vec((0..100).collect::<Vec<i32>>(), 7)
            .map(&c, |x| x * 3)
            .map_partitions(&c, |_, part| {
                part.into_iter().filter(|x| x % 2 == 0).collect()
            })
            .collect();
        let expected: Vec<i32> = (0..100).map(|x| x * 3).filter(|x| x % 2 == 0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_partitions_sees_partition_index() {
        let c = cluster();
        let out = Pds::from_vec(vec![0u32; 6], 3)
            .map_partitions(&c, |i, part| part.into_iter().map(|_| i).collect())
            .collect();
        assert_eq!(out, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn aggregate_sums() {
        // Fold per partition, combine on the driver: the native pane's
        // shape.
        let c = cluster();
        let total: u64 = Pds::from_vec((1..=100).collect::<Vec<u64>>(), 8)
            .map_partitions(&c, |_, part| vec![part.into_iter().sum::<u64>()])
            .collect()
            .into_iter()
            .sum();
        assert_eq!(total, 5_050);
    }

    #[test]
    fn group_by_key_collects_all_values_per_key() {
        let c = cluster();
        let data: Vec<(u32, u32)> = (0..100).map(|i| (i % 5, i)).collect();
        let grouped = Pds::from_vec(data, 8).group_by_key(&c);
        let mut out = grouped.collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 5);
        for (k, mut vals) in out {
            vals.sort_unstable();
            let expected: Vec<u32> = (0..100).filter(|i| i % 5 == k).collect();
            assert_eq!(vals, expected, "key {k}");
        }
    }

    #[test]
    fn group_by_key_keeps_keys_whole() {
        let c = cluster();
        let data: Vec<(u32, u32)> = (0..1_000).map(|i| (i % 17, i)).collect();
        let grouped = Pds::from_vec(data, 6).group_by_key(&c);
        // Every key appears in exactly one partition.
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (p, part) in grouped.partitions.iter().enumerate() {
            for (k, _) in part {
                if let Some(prev) = seen.insert(*k, p) {
                    assert_eq!(prev, p, "key {k} split across partitions");
                }
            }
        }
        assert_eq!(seen.len(), 17);
    }

    #[test]
    fn sample_exact_hits_exact_size() {
        let c = cluster();
        for &(n, s) in &[
            (10_000usize, 100usize),
            (10_000, 5_000),
            (100, 100),
            (100, 150),
        ] {
            let out = Pds::from_vec((0..n).collect::<Vec<usize>>(), 8)
                .sample_exact(&c, s, 7)
                .collect();
            assert_eq!(out.len(), s.min(n), "n={n} s={s}");
        }
    }

    #[test]
    fn sample_exact_zero_is_empty() {
        let c = cluster();
        let out = Pds::from_vec((0..50).collect::<Vec<u32>>(), 4)
            .sample_exact(&c, 0, 7)
            .collect();
        assert!(out.is_empty());
    }

    #[test]
    fn stratified_exact_is_proportional_per_stratum() {
        let c = cluster();
        let mut data: Vec<(StratumId, u32)> = Vec::new();
        for i in 0..1_000 {
            data.push((StratumId(0), i));
        }
        for i in 0..100 {
            data.push((StratumId(1), i));
        }
        let sample = Pds::from_vec(data, 8).sample_stratified_exact(&c, 0.2, 3);
        assert_eq!(sample.stratum(StratumId(0)).unwrap().sample_size(), 200);
        assert_eq!(sample.stratum(StratumId(1)).unwrap().sample_size(), 20);
        assert_eq!(sample.stratum(StratumId(0)).unwrap().population, 1_000);
    }

    #[test]
    fn cross_node_shuffle_preserves_data() {
        let c = Cluster::with_topology(3, 2);
        let data: Vec<(u32, u32)> = (0..300).map(|i| (i % 11, i)).collect();
        let grouped = Pds::from_vec(data, 6).group_by_key(&c);
        let total: usize = grouped.collect().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Pds::from_vec(vec![1], 0);
    }
}
