//! Scoring windows against the exact reference: sequence checks, the
//! accuracy metrics, and the degraded-merge ledger.

use crate::stats;
use streamapprox::WindowResult;

/// Accumulates every window a run emits. Windows must arrive as
/// `[k × slide, k × slide + size)` for `k = 0, 1, 2, …`; anything else is
/// counted in [`sequence_failures`](Scorer::sequence_failures).
#[derive(Debug, Clone)]
pub struct Scorer {
    size_ms: i64,
    slide_ms: i64,
    next: u64,
    /// Windows missing, duplicated or out of order against the reference.
    pub sequence_failures: u64,
    /// Windows admitted in sequence, over all reps.
    pub admitted: u64,
    /// Windows scored into the accuracy metrics.
    pub measured: u64,
    loss_sum: f64,
    covered: u64,
    halfwidths: Vec<f64>,
    /// Windows stamped `degraded`.
    pub degraded: u64,
    /// `lost_items` summed over a non-overlapping tiling of the windows,
    /// so a sliding window's shared panes are not counted twice.
    pub lost_items: u64,
}

impl Scorer {
    /// A scorer for windows of `window_ms = (size, slide)`.
    pub fn new(window_ms: (i64, i64)) -> Self {
        Scorer {
            size_ms: window_ms.0,
            slide_ms: window_ms.1,
            next: 0,
            sequence_failures: 0,
            admitted: 0,
            measured: 0,
            loss_sum: 0.0,
            covered: 0,
            halfwidths: Vec::new(),
            degraded: 0,
            lost_items: 0,
        }
    }

    /// Starts a new rep: window indices restart at 0, the accuracy
    /// accumulators carry on.
    pub fn begin_rep(&mut self) {
        self.next = 0;
    }

    /// Checks `w` against the expected sequence and returns its index
    /// `k`, or `None` (counted as a failure) for a window that is
    /// misaligned, duplicated or behind the sequence. A gap counts one
    /// failure per window skipped.
    pub fn admit(&mut self, w: &WindowResult) -> Option<u64> {
        let start = w.window.start.as_millis();
        let aligned = start >= 0
            && start % self.slide_ms == 0
            && w.window.end.as_millis() == start + self.size_ms;
        let k = (start / self.slide_ms) as u64;
        if !aligned || k < self.next {
            self.sequence_failures += 1;
            return None;
        }
        self.sequence_failures += k - self.next;
        self.next = k + 1;
        self.admitted += 1;
        if w.degraded {
            self.degraded += 1;
        }
        if k.is_multiple_of((self.size_ms / self.slide_ms) as u64) {
            self.lost_items += w.lost_items;
        }
        Some(k)
    }

    /// Scores an admitted window's mean against its `exact` value.
    pub fn score(&mut self, w: &WindowResult, exact: f64) {
        let (lo, hi) = w.mean.interval();
        self.measured += 1;
        self.loss_sum += (w.mean.value - exact).abs() / exact.abs();
        if lo <= exact && exact <= hi {
            self.covered += 1;
        }
        self.halfwidths.push(w.mean.relative_error());
    }

    /// Closes the sequence: `expected` windows should have been emitted in
    /// all; a shortfall counts one failure per missing window.
    pub fn expect_total(&mut self, expected: u64) {
        self.sequence_failures += expected.saturating_sub(self.next);
    }

    /// The paper's accuracy loss, `|approx − exact| / exact`, averaged
    /// over every scored window.
    pub fn accuracy_loss(&self) -> f64 {
        self.loss_sum / self.measured.max(1) as f64
    }

    /// Share of scored windows whose interval contains the exact mean.
    pub fn ci_coverage(&self) -> f64 {
        self.covered as f64 / self.measured.max(1) as f64
    }

    /// Median over scored windows of interval half-width ÷ estimate.
    pub fn rel_ci_halfwidth(&self) -> f64 {
        stats::median(&self.halfwidths)
    }
}

/// Whether two window sequences are bit-for-bit the same answer: same
/// windows, and every estimate and margin equal under `to_bits`.
pub fn bit_identical(a: &[WindowResult], b: &[WindowResult]) -> bool {
    let bits = |r: &sa_types::ApproxResult| (r.value.to_bits(), r.bound.margin().to_bits());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.window == y.window
                && bits(&x.mean) == bits(&y.mean)
                && bits(&x.sum) == bits(&y.sum)
                && x.degraded == y.degraded
                && x.lost_items == y.lost_items
                && x.mean_by_stratum.len() == y.mean_by_stratum.len()
                && x.mean_by_stratum
                    .iter()
                    .zip(&y.mean_by_stratum)
                    .all(|((sa, ra), (sb, rb))| sa == sb && bits(ra) == bits(rb))
        })
}
