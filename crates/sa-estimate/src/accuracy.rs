//! Accuracy metrics and adaptive sample-size control.
//!
//! The paper measures **accuracy loss** as `|approx − exact| / exact`
//! (§6.1) and closes the loop with "an adaptive feedback mechanism ... to
//! increase the sample size in the sampling module" whenever the reported
//! error bound exceeds the target (§4.2.1). Both live here.

use crate::stats::StratumStats;

/// The paper's accuracy-loss metric: `|approx − exact| / |exact|` (§6.1).
///
/// Returns 0 when both values are exactly zero, and `f64::INFINITY` when
/// only the exact value is zero (any deviation from a zero ground truth is
/// infinitely wrong in relative terms).
///
/// # Example
///
/// ```
/// use sa_estimate::accuracy_loss;
/// assert!((accuracy_loss(101.0, 100.0) - 0.01).abs() < 1e-12);
/// assert_eq!(accuracy_loss(0.0, 0.0), 0.0);
/// ```
pub fn accuracy_loss(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (approx - exact).abs() / exact.abs()
    }
}

/// Mean accuracy loss over paired observations, ignoring pairs whose exact
/// value is zero (matching how the evaluation averages over windows).
pub fn mean_accuracy_loss(pairs: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for &(approx, exact) in pairs {
        if exact != 0.0 {
            total += accuracy_loss(approx, exact);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The adaptive feedback controller of §4.2.1: grows the sample size when
/// the observed relative error exceeds the target, and (conservatively)
/// shrinks it when the error is comfortably below target, reclaiming
/// resources. AIMD-style, bounded on both ends.
///
/// # Example
///
/// ```
/// use sa_estimate::AdaptiveController;
///
/// let mut ctl = AdaptiveController::new(0.01, 100, 100_000);
/// // Error way above target → capacity grows multiplicatively.
/// let bigger = ctl.update(1_000, 0.05);
/// assert!(bigger > 1_000);
/// // Error far below target → capacity decays gently.
/// let smaller = ctl.update(bigger, 0.0001);
/// assert!(smaller < bigger);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveController {
    target_relative_error: f64,
    min_capacity: usize,
    max_capacity: usize,
    grow_factor: f64,
    shrink_factor: f64,
    /// Dead band around the target within which the capacity is left alone,
    /// as a fraction of the target (hysteresis against oscillation).
    slack: f64,
}

impl AdaptiveController {
    /// Creates a controller targeting the given relative error, with
    /// capacity clamped to `[min_capacity, max_capacity]`.
    ///
    /// # Panics
    ///
    /// Panics if the target is not in `(0, 1)`, `min_capacity` is zero, or
    /// the bounds are inverted.
    pub fn new(target_relative_error: f64, min_capacity: usize, max_capacity: usize) -> Self {
        assert!(
            target_relative_error > 0.0 && target_relative_error < 1.0,
            "target relative error must be in (0, 1)"
        );
        assert!(min_capacity > 0, "minimum capacity must be positive");
        assert!(
            min_capacity <= max_capacity,
            "minimum capacity exceeds maximum"
        );
        AdaptiveController {
            target_relative_error,
            min_capacity,
            max_capacity,
            grow_factor: 1.5,
            shrink_factor: 0.9,
            slack: 0.5,
        }
    }

    /// The target relative error.
    pub fn target(&self) -> f64 {
        self.target_relative_error
    }

    /// Computes the next per-interval capacity given the current capacity
    /// and the relative error observed in the interval that just ended.
    ///
    /// The error margin of a mean estimate scales as `1/√Y`, so on a
    /// violation the controller jumps straight to the analytically implied
    /// capacity `Y·(err/target)²` (clamped), rather than creeping up over
    /// many windows; within the dead band it holds; far below target it
    /// decays by `shrink_factor`.
    pub fn update(&mut self, current_capacity: usize, observed_relative_error: f64) -> usize {
        let target = self.target_relative_error;
        let next = if observed_relative_error > target {
            // Analytic jump: margin ∝ 1/√Y ⇒ Y' = Y (err/target)².
            let ratio = (observed_relative_error / target).powi(2);
            let jump = (current_capacity as f64 * ratio).ceil() as usize;
            jump.max((current_capacity as f64 * self.grow_factor).ceil() as usize)
        } else if observed_relative_error < target * self.slack {
            (current_capacity as f64 * self.shrink_factor).floor() as usize
        } else {
            current_capacity
        };
        next.clamp(self.min_capacity, self.max_capacity)
    }
}

/// Solves for the uniform sample-size inflation `k ≥ 1` needed to bring the
/// mean estimate's margin (Equation 9 at confidence `z`) down to
/// `target_margin`, assuming per-stratum variances stay as observed.
/// Returns 1.0 when the current sample already meets the target, and
/// `None` when no finite inflation can reach it (the margin floor set by
/// the finite-population correction is above the target).
///
/// This is the analytic half of the paper's §7 accuracy-budget discussion:
/// "we can define the sample size for each sub-stream based on a desired
/// width of the confidence interval using Equation 9 and the 68-95-99.7
/// rule".
pub fn required_inflation(stats: &[StratumStats], target_margin: f64, z: f64) -> Option<f64> {
    assert!(target_margin > 0.0, "target margin must be positive");
    assert!(z > 0.0, "z must be positive");
    let total: f64 = stats.iter().map(|s| s.population as f64).sum();
    if total == 0.0 {
        return Some(1.0);
    }
    // Var(k) = Σ ω_i² s_i² (1/(k·Y_i) − 1/C_i); monotone decreasing in k with
    // asymptote Var(∞) = −Σ ω_i² s_i²/C_i ≤ 0, so a solution always exists
    // unless every stratum is already exhausted.
    let variance_at = |k: f64| -> f64 {
        stats
            .iter()
            .filter(|s| s.sample_size() > 0)
            .map(|s| {
                let omega = s.population as f64 / total;
                let yi = s.sample_size() as f64;
                let ci = s.population as f64;
                let scaled_y = (k * yi).min(ci);
                omega * omega * s.acc.sample_variance() * (1.0 / scaled_y - 1.0 / ci)
            })
            .sum::<f64>()
            .max(0.0)
    };
    let target_var = (target_margin / z).powi(2);
    if variance_at(1.0) <= target_var {
        return Some(1.0);
    }
    // The variance floor is 0 (every stratum fully sampled); any positive
    // target is reachable, but cap the search to a sane bound.
    let mut lo = 1.0;
    let mut hi = 2.0;
    while variance_at(hi) > target_var {
        hi *= 2.0;
        if hi > 1e12 {
            return None;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if variance_at(mid) > target_var {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welford::Welford;
    use sa_types::StratumId;

    #[test]
    fn accuracy_loss_matches_definition() {
        assert!((accuracy_loss(95.0, 100.0) - 0.05).abs() < 1e-12);
        assert!((accuracy_loss(105.0, 100.0) - 0.05).abs() < 1e-12);
        assert_eq!(accuracy_loss(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn mean_accuracy_loss_skips_zero_ground_truth() {
        let pairs = [(1.0, 0.0), (110.0, 100.0), (95.0, 100.0)];
        assert!((mean_accuracy_loss(&pairs) - 0.075).abs() < 1e-12);
        assert_eq!(mean_accuracy_loss(&[]), 0.0);
    }

    #[test]
    fn controller_grows_on_violation() {
        let mut ctl = AdaptiveController::new(0.01, 10, 1_000_000);
        let next = ctl.update(100, 0.04);
        // Analytic jump: 100 · (0.04/0.01)² = 1600.
        assert_eq!(next, 1_600);
    }

    #[test]
    fn controller_holds_in_dead_band() {
        let mut ctl = AdaptiveController::new(0.01, 10, 1_000_000);
        assert_eq!(ctl.update(500, 0.008), 500);
    }

    #[test]
    fn controller_shrinks_when_overly_accurate() {
        let mut ctl = AdaptiveController::new(0.01, 10, 1_000_000);
        assert_eq!(ctl.update(1_000, 0.001), 900);
    }

    #[test]
    fn controller_respects_bounds() {
        let mut ctl = AdaptiveController::new(0.01, 50, 200);
        assert_eq!(ctl.update(190, 0.5), 200);
        assert_eq!(ctl.update(51, 0.0), 50);
    }

    #[test]
    #[should_panic(expected = "target relative error must be in (0, 1)")]
    fn controller_rejects_bad_target() {
        let _ = AdaptiveController::new(0.0, 1, 2);
    }

    fn stratum(pop: u64, values: &[f64]) -> StratumStats {
        let acc: Welford = values.iter().copied().collect();
        StratumStats::from_parts(StratumId(0), pop, acc)
    }

    #[test]
    fn inflation_is_one_when_target_already_met() {
        let stats = [stratum(100, &(0..50).map(|i| i as f64).collect::<Vec<_>>())];
        let k = required_inflation(&stats, 1e9, 2.0).unwrap();
        assert_eq!(k, 1.0);
    }

    #[test]
    fn inflation_reaches_target_variance() {
        let values: Vec<f64> = (0..20).map(|i| (i % 10) as f64).collect();
        let stats = [stratum(100_000, &values)];
        let z = 2.0;
        let target = 0.1;
        let k = required_inflation(&stats, target, z).unwrap();
        assert!(k > 1.0);
        // Verify: the variance at k·Y should give margin ≈ target.
        let s2 = stats[0].acc.sample_variance();
        let y = 20.0 * k;
        let ci = 100_000.0;
        let var = s2 * (1.0 / y - 1.0 / ci);
        let margin = z * var.sqrt();
        assert!(
            (margin - target).abs() < 0.01 * target,
            "margin {margin} vs target {target}"
        );
    }

    #[test]
    fn inflation_handles_empty_stats() {
        assert_eq!(required_inflation(&[], 0.1, 2.0), Some(1.0));
    }
}
