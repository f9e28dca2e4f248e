//! Per-stratum sufficient statistics: the bridge between samples and the
//! variance estimators of §3.3.

use crate::welford::Welford;
use sa_types::wire::put_varint;
use sa_types::{
    SaError, StratifiedSample, StratumId, StratumSample, WireDecode, WireEncode, WireReader,
};

/// The sufficient statistics of one stratum's sample: the arrival counter
/// `C_i`, and a [`Welford`] accumulator over the `Y_i` sampled values giving
/// `Ī_i` and `s_i²` (Equation 7).
///
/// Everything the sum/mean estimators (Equations 2–9) need is here, so
/// engines can ship these small structs between panes and workers instead
/// of the sampled items themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumStats {
    /// Which sub-stream the statistics describe.
    pub stratum: StratumId,
    /// `C_i`: number of items that arrived from this stratum.
    pub population: u64,
    /// Accumulator over the sampled values (`Y_i`, `Ī_i`, `s_i²`).
    pub acc: Welford,
}

impl StratumStats {
    /// Builds statistics from a weighted stratum sample, projecting each
    /// sampled item to the numeric value the query aggregates.
    ///
    /// # Example
    ///
    /// ```
    /// use sa_estimate::StratumStats;
    /// use sa_types::{StratumSample, StratumId};
    ///
    /// let s = StratumSample::new(StratumId(0), vec![1.0, 3.0], 10, 2);
    /// let stats = StratumStats::from_sample(&s, |v| *v);
    /// assert_eq!(stats.sample_size(), 2);
    /// assert_eq!(stats.population, 10);
    /// assert!((stats.acc.mean() - 2.0).abs() < 1e-12);
    /// ```
    pub fn from_sample<V, F: FnMut(&V) -> f64>(
        sample: &StratumSample<V>,
        mut proj: F,
    ) -> StratumStats {
        let mut acc = Welford::new();
        for item in &sample.items {
            acc.push(proj(item));
        }
        StratumStats {
            stratum: sample.stratum,
            population: sample.population,
            acc,
        }
    }

    /// Creates statistics directly from counters (used by engines that keep
    /// Welford accumulators inline instead of materializing samples).
    pub fn from_parts(stratum: StratumId, population: u64, acc: Welford) -> StratumStats {
        StratumStats {
            stratum,
            population,
            acc,
        }
    }

    /// `Y_i`: the realized sample size.
    #[inline]
    pub fn sample_size(&self) -> u64 {
        self.acc.count()
    }

    /// The stratum weight `W_i` of Equation 1 in its Horvitz–Thompson form
    /// `C_i / Y_i` (1 when the whole stratum was kept, 0 when nothing was).
    #[inline]
    pub fn weight(&self) -> f64 {
        let yi = self.acc.count();
        if self.population == 0 {
            1.0
        } else if yi == 0 {
            0.0
        } else if self.population > yi {
            self.population as f64 / yi as f64
        } else {
            1.0
        }
    }

    /// The estimated stratum total `SUM_i = (Σ I_ij) × W_i` (Equation 2).
    #[inline]
    pub fn estimated_sum(&self) -> f64 {
        self.acc.sum() * self.weight()
    }

    /// The finite-population-corrected variance contribution of this
    /// stratum to `V̂ar(SUM)` (one term of Equation 6):
    /// `C_i (C_i − Y_i) s_i² / Y_i`.
    #[inline]
    pub fn sum_variance(&self) -> f64 {
        let yi = self.acc.count();
        if yi == 0 {
            return 0.0;
        }
        let ci = self.population as f64;
        let fpc = ci * (ci - yi as f64);
        (fpc * self.acc.sample_variance() / yi as f64).max(0.0)
    }

    /// The variance of this stratum's mean estimate:
    /// `(s_i² / Y_i) × (C_i − Y_i) / C_i` (the per-stratum factor of
    /// Equation 9).
    #[inline]
    pub fn mean_variance(&self) -> f64 {
        let yi = self.acc.count();
        if yi == 0 || self.population == 0 {
            return 0.0;
        }
        let ci = self.population as f64;
        let fpc = (ci - yi as f64) / ci;
        (self.acc.sample_variance() / yi as f64 * fpc).max(0.0)
    }

    /// Merges statistics of the same stratum observed elsewhere (another
    /// worker or pane of the same interval).
    pub fn merge(&mut self, other: &StratumStats) {
        debug_assert_eq!(self.stratum, other.stratum);
        self.population += other.population;
        self.acc.merge(&other.acc);
    }
}

impl WireEncode for StratumStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.stratum.encode(out);
        put_varint(out, self.population);
        self.acc.encode(out);
    }
}

impl WireDecode for StratumStats {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let stratum = StratumId::decode(r)?;
        let population = r.read_varint()?;
        let acc = Welford::decode(r)?;
        // More sampled values than arrivals means a forged weight below 1.
        if acc.count() > population {
            return Err(SaError::Wire(format!(
                "stratum sample size {} exceeds population {population}",
                acc.count()
            )));
        }
        Ok(StratumStats {
            stratum,
            population,
            acc,
        })
    }
}

/// Projects a whole [`StratifiedSample`] to per-stratum statistics, in
/// stratum order.
pub fn stats_of<V, F: FnMut(&V) -> f64>(
    sample: &StratifiedSample<V>,
    mut proj: F,
) -> Vec<StratumStats> {
    sample
        .iter()
        .map(|s| StratumStats::from_sample(s, &mut proj))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pop: u64, values: &[f64]) -> StratumStats {
        let acc: Welford = values.iter().copied().collect();
        StratumStats::from_parts(StratumId(0), pop, acc)
    }

    #[test]
    fn weight_matches_equation_one() {
        assert_eq!(stats(10, &[1.0, 2.0]).weight(), 5.0);
        assert_eq!(stats(2, &[1.0, 2.0]).weight(), 1.0);
        assert_eq!(stats(0, &[]).weight(), 1.0);
        assert_eq!(stats(5, &[]).weight(), 0.0);
    }

    #[test]
    fn estimated_sum_scales_by_weight() {
        // 3 sampled values summing to 6, representing 9 items → 18.
        let s = stats(9, &[1.0, 2.0, 3.0]);
        assert!((s.estimated_sum() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn fully_sampled_stratum_has_zero_variance() {
        let s = stats(3, &[1.0, 2.0, 3.0]);
        assert_eq!(s.sum_variance(), 0.0);
        assert_eq!(s.mean_variance(), 0.0);
    }

    #[test]
    fn variance_terms_match_hand_computation() {
        // Ci = 10, Yi = 4, values 1..4: s² = 5/3.
        let s = stats(10, &[1.0, 2.0, 3.0, 4.0]);
        let s2 = 5.0 / 3.0;
        let expected_sum_var = 10.0 * (10.0 - 4.0) * s2 / 4.0;
        assert!((s.sum_variance() - expected_sum_var).abs() < 1e-9);
        let expected_mean_var = s2 / 4.0 * (10.0 - 4.0) / 10.0;
        assert!((s.mean_variance() - expected_mean_var).abs() < 1e-12);
    }

    #[test]
    fn single_item_sample_claims_no_dispersion() {
        let s = stats(100, &[42.0]);
        assert_eq!(s.sum_variance(), 0.0);
        assert_eq!(s.mean_variance(), 0.0);
        // But the point estimate still reconstructs the population.
        assert!((s.estimated_sum() - 4_200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_panes() {
        let mut a = stats(10, &[1.0, 2.0]);
        let b = stats(20, &[3.0, 4.0, 5.0]);
        a.merge(&b);
        assert_eq!(a.population, 30);
        assert_eq!(a.sample_size(), 5);
        assert!((a.acc.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_roundtrip_and_merge_through_wire() {
        let a = stats(10, &[1.0, 2.0]);
        let b = stats(20, &[3.0, 4.0, 5.0]);
        let mut orig = a;
        orig.merge(&b);
        let mut wire = StratumStats::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        wire.merge(&StratumStats::from_wire_bytes(&b.to_wire_bytes()).unwrap());
        assert_eq!(wire, orig);
    }

    #[test]
    fn forged_sample_size_rejected() {
        let s = stats(1, &[1.0, 2.0, 3.0]); // 3 sampled of a population of 1
        assert!(matches!(
            StratumStats::from_wire_bytes(&s.to_wire_bytes()),
            Err(sa_types::SaError::Wire(_))
        ));
    }

    #[test]
    fn stats_of_projects_all_strata() {
        use sa_types::StratumSample;
        let sample: StratifiedSample<(f64, f64)> = [
            StratumSample::new(StratumId(0), vec![(1.0, 9.0)], 4, 1),
            StratumSample::new(StratumId(1), vec![(2.0, 8.0)], 2, 1),
        ]
        .into_iter()
        .collect();
        let by_first = stats_of(&sample, |v| v.0);
        assert_eq!(by_first.len(), 2);
        assert!((by_first[0].acc.mean() - 1.0).abs() < 1e-12);
        let by_second = stats_of(&sample, |v| v.1);
        assert!((by_second[1].acc.mean() - 8.0).abs() < 1e-12);
    }
}
