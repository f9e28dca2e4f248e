//! The base stream and its exact reference.
//!
//! Every workload draws one base stream from `--seed` through the
//! `sa-workloads` generators and replays it with event-time offsets, so a
//! rep can run for seconds while memory stays flat. The exact answer of
//! any window of any replay follows from per-pane sums of the base
//! stream, computed here without touching the system under test.

use crate::spec::StreamKind;
use sa_types::{EventTime, StratumId, StreamItem};
use sa_workloads::{Distribution, Mix, SubStream};

/// Total arrival rate of both mixes, items per event-second.
const TOTAL_RATE: f64 = 61_200.0;
/// Strata of the wide mix.
const WIDE_STRATA: u32 = 2_048;

/// Draws the base stream for `kind`: `event_ms` of event time, in
/// event-time order, a pure function of `seed`.
pub fn generate(kind: StreamKind, event_ms: i64, seed: u64) -> Vec<StreamItem<f64>> {
    match kind {
        StreamKind::Dense => Mix::gaussian([48_000.0, 12_000.0, 1_200.0]).generate(event_ms, seed),
        StreamKind::Wide => {
            let harmonic: f64 = (1..=WIDE_STRATA).map(|rank| 1.0 / f64::from(rank)).sum();
            let substreams = (0..WIDE_STRATA)
                .map(|i| {
                    // Means differ by stratum so that stratification, not
                    // luck, is what keeps the estimate accurate.
                    let mean = 10.0 * f64::from(1 + i % 100);
                    SubStream::new(
                        StratumId(i),
                        TOTAL_RATE / (harmonic * f64::from(i + 1)),
                        Distribution::Gaussian {
                            mean,
                            std_dev: mean / 4.0,
                        },
                    )
                })
                .collect();
            Mix::new(substreams).generate(event_ms, seed)
        }
    }
}

/// `item` moved `shift_ms` later in event time — how replay pass `p`
/// re-stamps the base stream (`shift_ms = p × span`).
#[inline]
pub fn shifted(item: &StreamItem<f64>, shift_ms: i64) -> StreamItem<f64> {
    StreamItem::new(item.stratum, item.time + shift_ms, item.value)
}

/// Exact per-pane sums of the base stream, from which the exact mean of
/// every window of every replay pass follows.
#[derive(Debug, Clone)]
pub struct Reference {
    size_ms: i64,
    slide_ms: i64,
    sum: Vec<f64>,
    count: Vec<u64>,
}

impl Reference {
    /// Sums `items` (spanning `[0, span_ms)`) into panes one slide long.
    ///
    /// # Panics
    ///
    /// Panics unless the slide divides both the window size and the span.
    pub fn new(items: &[StreamItem<f64>], span_ms: i64, window_ms: (i64, i64)) -> Self {
        let (size_ms, slide_ms) = window_ms;
        assert!(
            size_ms % slide_ms == 0 && span_ms % slide_ms == 0,
            "the slide must divide the window size and the stream span"
        );
        let panes = (span_ms / slide_ms) as usize;
        let mut sum = vec![0.0; panes];
        let mut count = vec![0u64; panes];
        for item in items {
            let pane = (item.time.as_millis() / slide_ms) as usize;
            sum[pane] += item.value;
            count[pane] += 1;
        }
        Reference {
            size_ms,
            slide_ms,
            sum,
            count,
        }
    }

    /// Panes in one replay pass.
    pub fn panes_per_pass(&self) -> u64 {
        self.sum.len() as u64
    }

    /// Window slide, ms.
    pub fn slide_ms(&self) -> i64 {
        self.slide_ms
    }

    /// Window size, ms.
    pub fn size_ms(&self) -> i64 {
        self.size_ms
    }

    /// Event-time end of window `k` (windows start at `k × slide`).
    pub fn window_end_ms(&self, k: u64) -> i64 {
        k as i64 * self.slide_ms + self.size_ms
    }

    /// Exact mean of window `k` of a replay that pushed `total_panes`
    /// panes in all; trailing windows reaching past the end of the stream
    /// cover only the panes that exist, exactly as `finish` flushes them.
    pub fn exact_mean(&self, k: u64, total_panes: u64) -> f64 {
        let overlap = (self.size_ms / self.slide_ms) as u64;
        let per_pass = self.panes_per_pass();
        let (mut sum, mut count) = (0.0, 0u64);
        for pane in k..(k + overlap).min(total_panes) {
            let at = (pane % per_pass) as usize;
            sum += self.sum[at];
            count += self.count[at];
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

/// Re-stamps `items` in place by send order for the paced workload: item
/// `i` gets the millisecond it is scheduled to be sent in at
/// `items_per_ms`, so event time *is* scheduled send time and the content
/// of every window is fixed by the seed, not by the clock. The stream is
/// cut to a whole number of `slide_ms` panes; returns its new span in ms.
pub fn restamp(items: &mut Vec<StreamItem<f64>>, items_per_ms: u64, slide_ms: i64) -> i64 {
    let per_pane = items_per_ms as usize * slide_ms as usize;
    assert!(items.len() >= per_pane, "base stream shorter than one pane");
    items.truncate(items.len() / per_pane * per_pane);
    for (i, item) in items.iter_mut().enumerate() {
        item.time = EventTime::from_millis((i as u64 / items_per_ms) as i64);
    }
    (items.len() as u64 / items_per_ms) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = generate(StreamKind::Dense, 500, 7);
        let b = generate(StreamKind::Dense, 500, 7);
        let c = generate(StreamKind::Dense, 500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(a.len(), 30_600);
    }

    #[test]
    fn wide_mix_has_its_strata_and_rate() {
        let items = generate(StreamKind::Wide, 4_000, 3);
        let strata: std::collections::BTreeSet<u32> = items.iter().map(|i| i.stratum.0).collect();
        assert!(strata.len() > 2_000, "{} strata", strata.len());
        let expected = TOTAL_RATE * 4.0;
        assert!((items.len() as f64 - expected).abs() < expected * 0.02);
    }

    #[test]
    fn reference_wraps_passes_and_truncates_the_tail() {
        // Two 10 ms panes per pass: values 1,1 | 3.
        let items = vec![
            StreamItem::new(StratumId(0), EventTime::from_millis(0), 1.0),
            StreamItem::new(StratumId(0), EventTime::from_millis(5), 1.0),
            StreamItem::new(StratumId(0), EventTime::from_millis(12), 3.0),
        ];
        let r = Reference::new(&items, 20, (20, 10));
        assert_eq!(r.panes_per_pass(), 2);
        // Window 0 = panes 0,1; window 1 = pane 1 + pane 0 of pass 2.
        assert_eq!(r.exact_mean(0, 4), 5.0 / 3.0);
        assert_eq!(r.exact_mean(1, 4), 5.0 / 3.0);
        // The last window of a 4-pane replay covers pane 3 only.
        assert_eq!(r.exact_mean(3, 4), 3.0);
        assert_eq!(r.window_end_ms(3), 50);
    }

    #[test]
    fn restamp_cuts_to_whole_panes_in_send_order() {
        let mut items = generate(StreamKind::Dense, 100, 1);
        assert_eq!(items.len(), 6_120);
        let span = restamp(&mut items, 100, 10);
        assert_eq!((items.len(), span), (6_000, 60));
        assert_eq!(items[99].time.as_millis(), 0);
        assert_eq!(items[100].time.as_millis(), 1);
        assert_eq!(items[5_999].time.as_millis(), 59);
    }
}
