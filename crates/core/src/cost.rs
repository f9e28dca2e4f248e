//! The virtual cost function (§2.3 assumption 1, §7 of the paper):
//! policies translating a user's query budget into a per-interval sample
//! size, with feedback from the intervals that already ran.

use sa_estimate::AdaptiveController;
pub use sa_types::SizingDirective;
use sa_types::{Confidence, QueryBudget, SaError};

/// Per-interval feedback a policy can react to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalFeedback {
    /// Items that arrived in the interval.
    pub items: u64,
    /// Items selected by the sampler.
    pub sampled: u64,
    /// Wall-clock nanoseconds spent processing the interval.
    pub process_nanos: u64,
    /// Relative half-width of the interval's mean estimate (margin /
    /// |value|), `None` when no estimate was produced (empty interval).
    pub relative_error: Option<f64>,
}

/// A cost policy: the paper's "virtual cost function" driving the adaptive
/// execution (§3.1, §7). Implementations are stateful — they observe every
/// interval and steer the next one.
pub trait CostPolicy: Send {
    /// The sizing for the next interval.
    fn interval_sizing(&mut self) -> SizingDirective;

    /// Feedback from the interval that just completed.
    fn observe(&mut self, feedback: &IntervalFeedback) {
        let _ = feedback;
    }

    /// Whether [`interval_sizing`](CostPolicy::interval_sizing) returns
    /// the same directive for the whole run, whatever feedback it
    /// observes. The pipelined engine and the distributed coordinator
    /// consult the policy once, at start, so they refuse a policy that is
    /// not static instead of freezing it at its first directive.
    ///
    /// The default is `false`: a policy that does not say otherwise is
    /// taken to adapt, so those engines refuse it loudly rather than
    /// freeze it silently. A fixed custom policy overrides this to run on
    /// them.
    fn is_static(&self) -> bool {
        false
    }
}

/// The refusal of a non-static policy by an engine that consults its
/// cost policy only once (see [`CostPolicy::is_static`]).
pub(crate) fn frozen_policy(engine: &str) -> SaError {
    SaError::InvalidBudget(format!(
        "the {engine} engine consults the cost policy once, at start, and would freeze an \
         adaptive policy at its first directive; use a static policy (FixedFraction, \
         FixedPerStratum, TokenPolicy) or the aggregated, batched or sharded engine"
    ))
}

/// A cost policy held either by borrow or by value, so run wrappers can
/// keep handing the runtime a caller's `&mut dyn CostPolicy` while
/// budget-built sessions own their policy outright.
///
/// Everything that accepts `impl Into<PolicyHandle>` therefore takes a
/// `&mut` reference to any concrete policy, a `&mut dyn CostPolicy`, or a
/// `Box<dyn CostPolicy>` interchangeably.
pub enum PolicyHandle<'p> {
    /// A policy borrowed from the caller (the caller observes the
    /// feedback-driven state the run leaves behind).
    Borrowed(&'p mut dyn CostPolicy),
    /// A policy the runtime owns (built from a [`sa_types::QueryBudget`]).
    Owned(Box<dyn CostPolicy>),
}

impl CostPolicy for PolicyHandle<'_> {
    fn interval_sizing(&mut self) -> SizingDirective {
        match self {
            PolicyHandle::Borrowed(p) => p.interval_sizing(),
            PolicyHandle::Owned(p) => p.interval_sizing(),
        }
    }

    fn observe(&mut self, feedback: &IntervalFeedback) {
        match self {
            PolicyHandle::Borrowed(p) => p.observe(feedback),
            PolicyHandle::Owned(p) => p.observe(feedback),
        }
    }

    fn is_static(&self) -> bool {
        match self {
            PolicyHandle::Borrowed(p) => p.is_static(),
            PolicyHandle::Owned(p) => p.is_static(),
        }
    }
}

impl std::fmt::Debug for PolicyHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyHandle::Borrowed(_) => f.write_str("PolicyHandle::Borrowed(..)"),
            PolicyHandle::Owned(_) => f.write_str("PolicyHandle::Owned(..)"),
        }
    }
}

impl<'p, P: CostPolicy> From<&'p mut P> for PolicyHandle<'p> {
    fn from(policy: &'p mut P) -> Self {
        PolicyHandle::Borrowed(policy)
    }
}

impl<'p> From<&'p mut dyn CostPolicy> for PolicyHandle<'p> {
    fn from(policy: &'p mut dyn CostPolicy) -> Self {
        PolicyHandle::Borrowed(policy)
    }
}

impl From<Box<dyn CostPolicy>> for PolicyHandle<'static> {
    fn from(policy: Box<dyn CostPolicy>) -> Self {
        PolicyHandle::Owned(policy)
    }
}

/// Fixed sampling fraction — the knob every throughput experiment in the
/// paper sweeps (10%–90%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedFraction(pub f64);

impl CostPolicy for FixedFraction {
    fn interval_sizing(&mut self) -> SizingDirective {
        if self.0 >= 1.0 {
            SizingDirective::Everything
        } else {
            SizingDirective::Fraction(self.0)
        }
    }

    fn is_static(&self) -> bool {
        true
    }
}

/// Fixed per-stratum reservoir capacity — the paper's fixed-size-reservoir
/// configuration (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPerStratum(pub usize);

impl CostPolicy for FixedPerStratum {
    fn interval_sizing(&mut self) -> SizingDirective {
        SizingDirective::PerStratum(self.0)
    }

    fn is_static(&self) -> bool {
        true
    }
}

/// Accuracy-budget policy (§7-I accuracy case + the feedback mechanism of
/// §4.2.1): holds the reported relative error at or below the target by
/// growing/shrinking per-stratum capacities through an
/// [`AdaptiveController`].
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPolicy {
    controller: AdaptiveController,
    capacity: usize,
}

impl AccuracyPolicy {
    /// Creates a policy targeting `max_relative_error`, starting from
    /// `initial_capacity` slots per stratum, clamped to
    /// `[min_capacity, max_capacity]`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid target or inverted capacity bounds (see
    /// [`AdaptiveController::new`]).
    pub fn new(
        max_relative_error: f64,
        initial_capacity: usize,
        min_capacity: usize,
        max_capacity: usize,
    ) -> Self {
        AccuracyPolicy {
            controller: AdaptiveController::new(max_relative_error, min_capacity, max_capacity),
            capacity: initial_capacity.clamp(min_capacity, max_capacity),
        }
    }

    /// Current per-stratum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl CostPolicy for AccuracyPolicy {
    fn interval_sizing(&mut self) -> SizingDirective {
        SizingDirective::PerStratum(self.capacity)
    }

    fn observe(&mut self, feedback: &IntervalFeedback) {
        if let Some(err) = feedback.relative_error {
            self.capacity = self.controller.update(self.capacity, err);
        }
    }
}

/// Latency-budget policy (§7-I latency case): keeps the per-interval
/// processing time near the target by scaling the sampling fraction
/// proportionally (with an EWMA to damp noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPolicy {
    target_nanos: f64,
    ewma_nanos: Option<f64>,
    fraction: f64,
    min_fraction: f64,
}

impl LatencyPolicy {
    /// Creates a policy targeting `target_millis` per interval, never
    /// sampling below `min_fraction`.
    ///
    /// # Panics
    ///
    /// Panics if the target is zero or `min_fraction` is outside `(0, 1]`.
    pub fn new(target_millis: u64, min_fraction: f64) -> Self {
        Self::new_micros(target_millis * 1_000, min_fraction)
    }

    /// Creates a policy with a microsecond-granularity target — for
    /// sub-millisecond interval budgets (and for tests, which need a
    /// target below the engine's irreducible per-interval overhead to
    /// exercise load shedding on any machine).
    ///
    /// # Panics
    ///
    /// Panics if the target is zero or `min_fraction` is outside `(0, 1]`.
    pub fn new_micros(target_micros: u64, min_fraction: f64) -> Self {
        assert!(target_micros > 0, "latency target must be positive");
        assert!(
            min_fraction > 0.0 && min_fraction <= 1.0,
            "minimum fraction must be in (0, 1]"
        );
        LatencyPolicy {
            target_nanos: target_micros as f64 * 1e3,
            ewma_nanos: None,
            fraction: 1.0,
            min_fraction,
        }
    }

    /// The fraction currently in force.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl CostPolicy for LatencyPolicy {
    fn interval_sizing(&mut self) -> SizingDirective {
        if self.fraction >= 1.0 {
            SizingDirective::Everything
        } else {
            SizingDirective::Fraction(self.fraction)
        }
    }

    fn observe(&mut self, feedback: &IntervalFeedback) {
        let observed = feedback.process_nanos as f64;
        let ewma = match self.ewma_nanos {
            Some(prev) => 0.7 * prev + 0.3 * observed,
            None => observed,
        };
        self.ewma_nanos = Some(ewma);
        if ewma > 0.0 {
            // Processing time is ~linear in sampled items; move the
            // fraction towards the ratio, bounded per step.
            let ratio = (self.target_nanos / ewma).clamp(0.5, 2.0);
            self.fraction = (self.fraction * ratio).clamp(self.min_fraction, 1.0);
        }
    }
}

/// Resource-token policy (§7-I, the Pulsar-style virtual data center):
/// every interval may spend `tokens_per_interval`; aggregating one item
/// costs `tokens_per_item`, so the sample budget is their quotient, split
/// across strata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenPolicy {
    tokens_per_interval: u64,
    tokens_per_item: u64,
}

impl TokenPolicy {
    /// Creates a token policy.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(tokens_per_interval: u64, tokens_per_item: u64) -> Self {
        assert!(tokens_per_interval > 0, "token budget must be positive");
        assert!(tokens_per_item > 0, "per-item cost must be positive");
        TokenPolicy {
            tokens_per_interval,
            tokens_per_item,
        }
    }
}

impl CostPolicy for TokenPolicy {
    fn interval_sizing(&mut self) -> SizingDirective {
        SizingDirective::SharedTotal(
            ((self.tokens_per_interval / self.tokens_per_item) as usize).max(1),
        )
    }

    fn is_static(&self) -> bool {
        true
    }
}

/// Builds the policy a [`QueryBudget`] implies.
///
/// # Errors
///
/// Returns the budget's validation error if its parameters are out of
/// range.
pub fn policy_for_budget(budget: QueryBudget) -> Result<Box<dyn CostPolicy>, SaError> {
    budget.validate()?;
    Ok(match budget {
        QueryBudget::SampleFraction(f) => Box::new(FixedFraction(f)),
        QueryBudget::SampleSize(n) => Box::new(FixedPerStratum(n)),
        QueryBudget::LatencyMillis(ms) => Box::new(LatencyPolicy::new(ms, 0.01)),
        QueryBudget::Accuracy {
            max_relative_error,
            confidence: _confidence,
        } => Box::new(AccuracyPolicy::new(max_relative_error, 256, 16, 1 << 20)),
        QueryBudget::ResourceTokens(tokens) => Box::new(TokenPolicy::new(tokens, 1)),
    })
}

/// The confidence a budget implies (accuracy budgets carry their own;
/// everything else defaults to 95%).
pub fn confidence_for_budget(budget: QueryBudget) -> Confidence {
    match budget {
        QueryBudget::Accuracy { confidence, .. } => confidence,
        _ => Confidence::P95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback(err: Option<f64>, nanos: u64) -> IntervalFeedback {
        IntervalFeedback {
            items: 1_000,
            sampled: 500,
            process_nanos: nanos,
            relative_error: err,
        }
    }

    #[test]
    fn fixed_fraction_full_is_everything() {
        assert_eq!(
            FixedFraction(1.0).interval_sizing(),
            SizingDirective::Everything
        );
        assert_eq!(
            FixedFraction(0.4).interval_sizing(),
            SizingDirective::Fraction(0.4)
        );
    }

    #[test]
    fn accuracy_policy_grows_on_violation() {
        let mut p = AccuracyPolicy::new(0.01, 100, 10, 1_000_000);
        assert_eq!(p.interval_sizing(), SizingDirective::PerStratum(100));
        p.observe(&feedback(Some(0.05), 0));
        let SizingDirective::PerStratum(n) = p.interval_sizing() else {
            panic!("expected per-stratum sizing")
        };
        assert!(n > 100, "capacity did not grow: {n}");
    }

    #[test]
    fn accuracy_policy_ignores_empty_intervals() {
        let mut p = AccuracyPolicy::new(0.01, 100, 10, 1_000);
        p.observe(&feedback(None, 0));
        assert_eq!(p.capacity(), 100);
    }

    #[test]
    fn latency_policy_shrinks_fraction_when_slow() {
        let mut p = LatencyPolicy::new(10, 0.05); // 10ms target
        p.observe(&feedback(None, 40_000_000)); // 40ms observed
        assert!(p.fraction() < 1.0);
        let f1 = p.fraction();
        p.observe(&feedback(None, 40_000_000));
        assert!(p.fraction() < f1, "fraction should keep shrinking");
    }

    #[test]
    fn latency_policy_recovers_when_fast() {
        let mut p = LatencyPolicy::new(10, 0.05);
        for _ in 0..10 {
            p.observe(&feedback(None, 100_000_000));
        }
        let low = p.fraction();
        for _ in 0..40 {
            p.observe(&feedback(None, 1_000_000)); // 1ms: far under target
        }
        assert!(p.fraction() > low);
    }

    #[test]
    fn latency_fraction_respects_floor() {
        let mut p = LatencyPolicy::new(1, 0.2);
        for _ in 0..50 {
            p.observe(&feedback(None, 1_000_000_000));
        }
        assert!((p.fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn token_policy_divides_budget() {
        let mut p = TokenPolicy::new(1_000, 4);
        assert_eq!(p.interval_sizing(), SizingDirective::SharedTotal(250));
    }

    #[test]
    fn budget_mapping_covers_all_variants() {
        for budget in [
            QueryBudget::SampleFraction(0.5),
            QueryBudget::SampleSize(100),
            QueryBudget::LatencyMillis(100),
            QueryBudget::Accuracy {
                max_relative_error: 0.01,
                confidence: Confidence::P997,
            },
            QueryBudget::ResourceTokens(500),
        ] {
            assert!(policy_for_budget(budget).is_ok(), "{budget}");
        }
        assert!(policy_for_budget(QueryBudget::SampleFraction(0.0)).is_err());
        assert_eq!(
            confidence_for_budget(QueryBudget::Accuracy {
                max_relative_error: 0.01,
                confidence: Confidence::P997,
            }),
            Confidence::P997
        );
        assert_eq!(
            confidence_for_budget(QueryBudget::SampleFraction(0.5)),
            Confidence::P95
        );
    }
}
