//! Weighted stratified samples — the common currency between sampling
//! algorithms and error estimation.
//!
//! Every sampler in this workspace (OASRS, Spark-style STS, …) reduces a time
//! interval's worth of input to a [`StratifiedSample`]: per stratum, the
//! selected items `Y_i`, the observed population counter `C_i`, and the
//! reservoir capacity `N_i`. The stratum weight of Equation 1 in the paper,
//!
//! ```text
//! W_i = C_i / N_i   if C_i > N_i
//! W_i = 1           if C_i <= N_i
//! ```
//!
//! falls out of those counters, and the estimators in `sa-estimate` consume
//! the same struct to produce `output ± error bound`.

use crate::item::StratumId;

/// The sample drawn from a single stratum (sub-stream) during one time
/// interval, together with the bookkeeping needed for weighting (Eq. 1) and
/// variance estimation (Eq. 6/9).
///
/// # Example
///
/// ```
/// use sa_types::{StratumSample, StratumId};
/// // 3-slot reservoir that saw 6 items: every selected item represents 2.
/// let s = StratumSample::new(StratumId(0), vec![1.0, 2.0, 3.0], 6, 3);
/// assert_eq!(s.weight(), 2.0);
/// // A stratum that never filled its reservoir represents itself.
/// let small = StratumSample::new(StratumId(1), vec![5.0], 1, 3);
/// assert_eq!(small.weight(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSample<V> {
    /// Which sub-stream this sample came from.
    pub stratum: StratumId,
    /// The `Y_i` selected items.
    pub items: Vec<V>,
    /// `C_i`: how many items arrived from this stratum in the interval.
    pub population: u64,
    /// `N_i`: the reservoir capacity this stratum was given.
    pub capacity: usize,
}

impl<V> StratumSample<V> {
    /// Creates a stratum sample.
    ///
    /// # Panics
    ///
    /// Panics if more items were selected than arrived (`items.len() >
    /// population`), which no correct sampler can produce.
    pub fn new(stratum: StratumId, items: Vec<V>, population: u64, capacity: usize) -> Self {
        assert!(
            items.len() as u64 <= population,
            "sampler selected {} items out of a population of {}",
            items.len(),
            population
        );
        StratumSample {
            stratum,
            items,
            population,
            capacity,
        }
    }

    /// `Y_i`: the number of selected items.
    #[inline]
    pub fn sample_size(&self) -> usize {
        self.items.len()
    }

    /// The stratum weight `W_i` of Equation 1.
    ///
    /// When the realized sample is smaller than the capacity for reasons
    /// other than a small population (e.g. Bernoulli-style samplers whose
    /// size is random), the weight generalizes to the Horvitz–Thompson form
    /// `C_i / Y_i`, which coincides with Equation 1 for reservoir samplers
    /// (where `Y_i = min(C_i, N_i)`). An empty sample from a non-empty
    /// population has weight 0: it cannot represent anything.
    #[inline]
    pub fn weight(&self) -> f64 {
        let yi = self.items.len() as f64;
        let ci = self.population as f64;
        if self.population == 0 || yi == 0.0 {
            if self.population == 0 {
                1.0
            } else {
                0.0
            }
        } else if ci > yi {
            ci / yi
        } else {
            1.0
        }
    }

    /// Maps the sampled items, keeping all counters.
    pub fn map_items<U, F: FnMut(&V) -> U>(&self, mut f: F) -> StratumSample<U> {
        StratumSample {
            stratum: self.stratum,
            items: self.items.iter().map(&mut f).collect(),
            population: self.population,
            capacity: self.capacity,
        }
    }
}

/// A full stratified sample for one time interval: one [`StratumSample`] per
/// sub-stream seen, in stratum order.
///
/// # Example
///
/// ```
/// use sa_types::{StratifiedSample, StratumSample, StratumId};
/// let mut sample = StratifiedSample::new();
/// sample.push(StratumSample::new(StratumId(0), vec![1.0], 4, 1));
/// sample.push(StratumSample::new(StratumId(1), vec![2.0, 3.0], 2, 4));
/// assert_eq!(sample.total_population(), 6);
/// assert_eq!(sample.total_sampled(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StratifiedSample<V> {
    strata: Vec<StratumSample<V>>,
}

impl<V> StratifiedSample<V> {
    /// Creates an empty stratified sample.
    pub fn new() -> Self {
        StratifiedSample { strata: Vec::new() }
    }

    /// Adds a stratum's sample. Strata are kept sorted by [`StratumId`] so
    /// output and estimation are deterministic regardless of arrival order.
    pub fn push(&mut self, s: StratumSample<V>) {
        let pos = self
            .strata
            .binary_search_by_key(&s.stratum, |x| x.stratum)
            .unwrap_or_else(|p| p);
        self.strata.insert(pos, s);
    }

    /// Iterates over the per-stratum samples in stratum order.
    pub fn iter(&self) -> std::slice::Iter<'_, StratumSample<V>> {
        self.strata.iter()
    }

    /// Number of strata represented.
    #[inline]
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Whether no stratum contributed anything.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Looks up the sample of one stratum.
    pub fn stratum(&self, id: StratumId) -> Option<&StratumSample<V>> {
        self.strata
            .binary_search_by_key(&id, |x| x.stratum)
            .ok()
            .map(|i| &self.strata[i])
    }

    /// Total `ΣC_i` across strata.
    pub fn total_population(&self) -> u64 {
        self.strata.iter().map(|s| s.population).sum()
    }

    /// Total `ΣY_i` across strata.
    pub fn total_sampled(&self) -> u64 {
        self.strata.iter().map(|s| s.items.len() as u64).sum()
    }

    /// Merges another stratified sample drawn from a *disjoint* portion of
    /// the same stream (the paper's distributed execution, §3.2: per-worker
    /// reservoirs of size `N_i/w` whose union forms the stratum sample, with
    /// counters summed).
    pub fn union(&mut self, other: StratifiedSample<V>) {
        for s in other.strata {
            match self.strata.binary_search_by_key(&s.stratum, |x| x.stratum) {
                Ok(i) => {
                    let dst = &mut self.strata[i];
                    dst.items.extend(s.items);
                    dst.population += s.population;
                    dst.capacity += s.capacity;
                }
                Err(p) => self.strata.insert(p, s),
            }
        }
    }

    /// Consumes the sample, returning the per-stratum samples in order.
    pub fn into_strata(self) -> Vec<StratumSample<V>> {
        self.strata
    }
}

impl<V> FromIterator<StratumSample<V>> for StratifiedSample<V> {
    fn from_iter<I: IntoIterator<Item = StratumSample<V>>>(iter: I) -> Self {
        let mut s = StratifiedSample::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl<'a, V> IntoIterator for &'a StratifiedSample<V> {
    type Item = &'a StratumSample<V>;
    type IntoIter = std::slice::Iter<'a, StratumSample<V>>;
    fn into_iter(self) -> Self::IntoIter {
        self.strata.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, items: Vec<f64>, pop: u64, cap: usize) -> StratumSample<f64> {
        StratumSample::new(StratumId(id), items, pop, cap)
    }

    #[test]
    fn weight_matches_equation_one() {
        // Ci > Ni: weight Ci/Ni (reservoir full: Yi == Ni).
        assert_eq!(s(0, vec![1.0, 2.0, 3.0], 6, 3).weight(), 2.0);
        // Ci <= Ni: weight 1.
        assert_eq!(s(0, vec![1.0, 2.0], 2, 3).weight(), 1.0);
        // Degenerate: empty population.
        assert_eq!(s(0, vec![], 0, 3).weight(), 1.0);
        // Degenerate: population but nothing sampled.
        assert_eq!(s(0, vec![], 5, 3).weight(), 0.0);
    }

    #[test]
    fn weight_generalizes_to_horvitz_thompson() {
        // Bernoulli sampler returned 2 of 10 with capacity 5.
        let sm = s(0, vec![1.0, 2.0], 10, 5);
        assert_eq!(sm.weight(), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of a population")]
    fn oversampled_stratum_rejected() {
        let _ = s(0, vec![1.0, 2.0], 1, 5);
    }

    #[test]
    fn push_keeps_stratum_order() {
        let mut sample = StratifiedSample::new();
        sample.push(s(2, vec![1.0], 1, 1));
        sample.push(s(0, vec![2.0], 1, 1));
        sample.push(s(1, vec![3.0], 1, 1));
        let ids: Vec<u32> = sample.iter().map(|x| x.stratum.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn totals_aggregate_across_strata() {
        let sample: StratifiedSample<f64> = [s(0, vec![1.0], 4, 1), s(1, vec![2.0, 3.0], 2, 4)]
            .into_iter()
            .collect();
        assert_eq!(sample.total_population(), 6);
        assert_eq!(sample.total_sampled(), 3);
        assert_eq!(sample.num_strata(), 2);
        assert!(sample.stratum(StratumId(1)).is_some());
        assert!(sample.stratum(StratumId(9)).is_none());
    }

    #[test]
    fn union_merges_matching_strata_and_inserts_new() {
        let mut a: StratifiedSample<f64> = [s(0, vec![1.0], 5, 2)].into_iter().collect();
        let b: StratifiedSample<f64> = [s(0, vec![2.0], 7, 2), s(3, vec![9.0], 1, 2)]
            .into_iter()
            .collect();
        a.union(b);
        assert_eq!(a.num_strata(), 2);
        let s0 = a.stratum(StratumId(0)).unwrap();
        assert_eq!(s0.items, vec![1.0, 2.0]);
        assert_eq!(s0.population, 12);
        assert_eq!(s0.capacity, 4);
        assert_eq!(a.stratum(StratumId(3)).unwrap().population, 1);
    }

    #[test]
    fn map_items_keeps_counters() {
        let sm = s(0, vec![1.0, 2.0], 10, 5).map_items(|v| v * 10.0);
        assert_eq!(sm.items, vec![10.0, 20.0]);
        assert_eq!(sm.population, 10);
        assert_eq!(sm.capacity, 5);
    }
}
