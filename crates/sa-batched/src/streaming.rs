//! Micro-batches and window completion: the batched stream-processing
//! model (§2.2).
//!
//! "An input data stream is divided into small batches using a pre-defined
//! batch interval, and each such batch is processed via a distributed
//! data-parallel job." A [`MicroBatch`] is one such batch; the division by
//! event time is the `streamapprox` runtime's pane driver, shared by every
//! engine, and what job runs per batch is the caller's business (the
//! StreamApprox runners sample *before* forming the dataset, the baselines
//! after).

use sa_types::{EventTime, StreamItem, Window, WindowSpec};

/// One micro-batch: the items whose event times fall in `[window.start,
/// window.end)` for a batch-interval-sized window.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBatch<T> {
    /// The batch's time span (length = batch interval).
    pub window: Window,
    /// Items in event-time order.
    pub items: Vec<StreamItem<T>>,
}

/// Enumerates the sliding windows of `spec` that are *complete* once every
/// batch up to `watermark` has been processed — i.e. windows whose end is
/// at or before the watermark and after `previous_watermark`. A stream's
/// first window starts at `origin`: windows reaching back before it are
/// not windows of this stream and are never enumerated.
pub fn completed_windows(
    spec: WindowSpec,
    origin: EventTime,
    previous_watermark: EventTime,
    watermark: EventTime,
) -> Vec<Window> {
    let slide = spec.slide_millis();
    let size = spec.size_millis();
    let mut out = Vec::new();
    // Window ends are at start + size where start is a multiple of slide;
    // the smallest end > prev comes first. Ends that `i64` cannot hold
    // are not windows: enumeration stops there instead of overflowing.
    let prev = previous_watermark.as_millis();
    let origin = origin.as_millis();
    let k = prev.saturating_sub(size).div_euclid(slide) + 1;
    let mut next = k
        .max(origin.div_euclid(slide))
        .checked_mul(slide)
        .and_then(|s| s.checked_add(size));
    while let Some(end) = next.filter(|&end| end <= watermark.as_millis()) {
        let start = end - size;
        if start >= origin {
            out.push(Window::new(
                EventTime::from_millis(start),
                EventTime::from_millis(end),
            ));
        }
        next = end.checked_add(slide);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_windows_progress_with_watermark() {
        let spec = WindowSpec::sliding_secs(10, 5);
        // Watermark moves 0 → 10s: the [0,10) window completes.
        let origin = EventTime::from_secs(0);
        let w1 = completed_windows(spec, origin, origin, EventTime::from_secs(10));
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].start, EventTime::from_secs(0));
        // 10s → 20s: [5,15) and [10,20) complete.
        let w2 = completed_windows(
            spec,
            origin,
            EventTime::from_secs(10),
            EventTime::from_secs(20),
        );
        assert_eq!(w2.len(), 2);
        assert_eq!(w2[0].start, EventTime::from_secs(5));
        assert_eq!(w2[1].start, EventTime::from_secs(10));
    }

    #[test]
    fn completed_windows_stop_at_the_end_of_time() {
        // The last representable ends are enumerated, then the loop stops
        // rather than overflowing `end + slide`.
        let spec = WindowSpec::tumbling_millis(1_000);
        let near_max = EventTime::from_millis(i64::MAX - 2_500);
        let origin = EventTime::from_millis(0);
        let done = completed_windows(spec, origin, near_max, EventTime::from_millis(i64::MAX));
        assert_eq!(done.len(), 2);
        assert!(done[1].end.as_millis() > i64::MAX - 1_000);
    }

    #[test]
    fn completed_windows_follow_a_negative_origin() {
        // A stream that began at −10 s: its first window is [−10, 0), and
        // the one reaching back to −15 s is not enumerated.
        let spec = WindowSpec::sliding_secs(10, 5);
        let origin = EventTime::from_secs(-10);
        let done = completed_windows(spec, origin, origin, EventTime::from_secs(5));
        let starts: Vec<i64> = done.iter().map(|w| w.start.as_millis()).collect();
        assert_eq!(starts, vec![-10_000, -5_000]);
    }

    #[test]
    fn completed_windows_no_duplicates_across_calls() {
        let spec = WindowSpec::sliding_secs(10, 5);
        let mut all = Vec::new();
        let mut prev = EventTime::from_secs(0);
        for s in [7i64, 13, 18, 25, 40] {
            let wm = EventTime::from_secs(s);
            all.extend(completed_windows(spec, EventTime::from_secs(0), prev, wm));
            prev = wm;
        }
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(all, dedup);
        // Windows arrive in order.
        for w in all.windows(2) {
            assert!(w[0].end <= w[1].end);
        }
    }
}
