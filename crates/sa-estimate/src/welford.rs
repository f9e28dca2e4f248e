//! Welford's online algorithm for streaming mean and variance.
//!
//! The estimators of §3.3 need, per stratum, the sample mean `Ī_i` and the
//! unbiased sample variance `s_i²` (Equation 7). Welford's recurrence
//! computes both in one numerically stable pass without storing the items.

use sa_types::wire_struct;

/// A streaming accumulator for count, mean and unbiased sample variance.
///
/// # Example
///
/// ```
/// use sa_estimate::Welford;
///
/// let mut acc = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 8);
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// // Unbiased sample variance of the classic example is 32/7.
/// assert!((acc.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of the observations (`mean × count`).
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Unbiased sample variance `s² = Σ(x − x̄)² / (n − 1)` (Equation 7).
    ///
    /// Returns 0 for fewer than two observations: with a single sampled
    /// item the within-stratum dispersion is unobservable, and the paper's
    /// variance estimator degrades gracefully to claiming none (see
    /// `sa-estimate`'s crate docs for the implications).
    #[inline]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance `Σ(x − x̄)² / n` (0 when empty).
    #[inline]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// variance), as if every observation had been pushed here.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }

    /// What a decoded accumulator must satisfy: an empty one is all-zero,
    /// or `push`/`merge` would start from a phantom mean, and `m2` is a sum
    /// of squares, never negative (NaN passes — pushing NaN values is
    /// legitimate).
    fn is_consistent(&self) -> bool {
        let empty_is_zero = self.count > 0 || (self.mean == 0.0 && self.m2 == 0.0);
        empty_is_zero && (self.m2 >= 0.0 || self.m2.is_nan())
    }
}

wire_struct!(Welford { count, mean, m2 } check Welford::is_consistent);

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Welford::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::wire::put_varint;
    use sa_types::{WireDecode, WireEncode};

    fn naive_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = Welford::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.sum(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let acc: Welford = [5.0].into_iter().collect();
        assert_eq!(acc.mean(), 5.0);
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let acc: Welford = xs.iter().copied().collect();
        let (mean, var) = naive_stats(&xs);
        assert!((acc.mean() - mean).abs() < 1e-10);
        assert!((acc.sample_variance() - var).abs() < 1e-10);
        assert!((acc.sum() - xs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Naive two-pass Σx² − n·x̄² catastrophically cancels here.
        let xs: Vec<f64> = (0..1_000).map(|i| 1e9 + (i % 7) as f64).collect();
        let acc: Welford = xs.iter().copied().collect();
        let (mean, var) = naive_stats(&xs);
        assert!((acc.mean() - mean).abs() / mean < 1e-12);
        assert!((acc.sample_variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..57).map(|i| i as f64 * 0.7 - 3.0).collect();
        let (a_part, b_part) = xs.split_at(23);
        let mut a: Welford = a_part.iter().copied().collect();
        let b: Welford = b_part.iter().copied().collect();
        a.merge(&b);
        let all: Welford = xs.iter().copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Welford = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn wire_roundtrip_preserves_bits() {
        let acc: Welford = (0..100).map(|i| (i as f64).sin() * 1e6).collect();
        let back = Welford::from_wire_bytes(&acc.to_wire_bytes()).unwrap();
        assert_eq!(back, acc);
        // Merging the decoded copy equals merging the original, bit for bit.
        let other: Welford = [7.0, 8.0, 9.0].into_iter().collect();
        let mut m1 = acc;
        m1.merge(&other);
        let mut m2 = back;
        m2.merge(&Welford::from_wire_bytes(&other.to_wire_bytes()).unwrap());
        assert_eq!(m1, m2);
    }

    #[test]
    fn hostile_welford_payloads_rejected() {
        // Empty-but-nonzero accumulator.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 0);
        5.0f64.encode(&mut bytes);
        0.0f64.encode(&mut bytes);
        assert!(Welford::from_wire_bytes(&bytes).is_err());
        // Negative sum of squares.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 3);
        1.0f64.encode(&mut bytes);
        (-1.0f64).encode(&mut bytes);
        assert!(Welford::from_wire_bytes(&bytes).is_err());
        // Truncations error instead of panicking.
        let good: Welford = [1.0, 2.0].into_iter().collect();
        let full = good.to_wire_bytes();
        for cut in 0..full.len() {
            assert!(Welford::from_wire_bytes(&full[..cut]).is_err());
        }
    }

    #[test]
    fn extend_accumulates() {
        let mut acc = Welford::new();
        acc.extend([1.0, 2.0, 3.0]);
        acc.extend([4.0]);
        assert_eq!(acc.count(), 4);
        assert!((acc.mean() - 2.5).abs() < 1e-12);
    }
}
