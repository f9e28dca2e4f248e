//! Pane-based sliding-window assembly.
//!
//! Both execution models sample per *pane* — the batch interval in the
//! batched model, the slide interval in the pipelined model (§5.5: "the
//! sampling operations are performed at every batch interval in the
//! Spark-based systems and at every slide window interval in the
//! Flink-based StreamApprox") — and sliding windows combine the panes they
//! cover. [`PaneWindower`] does that bookkeeping generically.

use sa_batched::completed_windows;
use sa_types::{EventTime, Window, WindowSpec};
use std::collections::BTreeMap;

/// Collects per-pane payloads and emits, as the watermark advances, each
/// completed window together with the payloads of every pane it covers.
///
/// Multiple payloads may be registered for the same pane (one per parallel
/// sampling worker); they are all delivered. Panes are assigned to the
/// windows containing their start time, which is exact whenever the pane
/// length divides the slide (the paper's configurations all satisfy this).
///
/// # Example
///
/// ```
/// use streamapprox::PaneWindower;
/// use sa_types::{EventTime, Window, WindowSpec};
///
/// let spec = WindowSpec::sliding_secs(10, 5);
/// let mut windower: PaneWindower<u32> = PaneWindower::new(spec);
/// for pane_start in 0..2 {
///     let w = Window::new(
///         EventTime::from_secs(pane_start * 5),
///         EventTime::from_secs(pane_start * 5 + 5),
///     );
///     windower.add_pane(w, pane_start as u32);
/// }
/// let done = windower.advance(EventTime::from_secs(10));
/// assert_eq!(done.len(), 1); // the [0s, 10s) window, covering panes 0 and 1
/// assert_eq!(done[0].1, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct PaneWindower<P> {
    spec: WindowSpec,
    /// Pane payloads keyed by pane start (ms).
    panes: BTreeMap<i64, Vec<P>>,
    watermark: EventTime,
}

impl<P: Clone> PaneWindower<P> {
    /// Creates a windower for the given spec.
    pub fn new(spec: WindowSpec) -> Self {
        PaneWindower {
            spec,
            panes: BTreeMap::new(),
            watermark: EventTime::from_millis(0),
        }
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Registers a payload for the pane spanning `pane`.
    pub fn add_pane(&mut self, pane: Window, payload: P) {
        self.panes
            .entry(pane.start.as_millis())
            .or_default()
            .push(payload);
    }

    /// Advances the watermark and returns every window that completed,
    /// with the payloads of its panes in pane order. Windows whose panes
    /// were all empty still appear (with an empty payload list) so callers
    /// can emit explicit empty results — except across a quiet gap longer
    /// than twice `window size + slide`: the interior of such a gap holds
    /// only windows no pane can ever touch, so they are skipped rather
    /// than materialized one per slide (a live session must stay O(1) per
    /// watermark advance, however far event time jumps). Windows
    /// overlapping data at either edge of the gap still complete normally.
    pub fn advance(&mut self, watermark: EventTime) -> Vec<(Window, Vec<P>)> {
        if watermark <= self.watermark {
            return Vec::new();
        }
        let span = self.spec.size_millis() + self.spec.slide_millis();
        let prev = self.watermark.as_millis();
        let wm = watermark.as_millis();
        let done = if wm.saturating_sub(prev) > 2 * span {
            // Bridge the jump with bounded strips of window ends: near
            // the old frontier, near the new one, and across every stored
            // pane (a window containing a pane starting at `k` ends in
            // `(k, k + size]`). Everything else in the jump is quiet by
            // construction. Strips are clamped to `(prev, wm]`, merged
            // while overlapping, and enumerated in order, so each window
            // appears exactly once and end-order is preserved.
            let mut strips = vec![
                (prev, prev.saturating_add(span)),
                (wm.saturating_sub(span), wm),
            ];
            // One strip per stored pane — not one strip across them all,
            // which would span the very gap being skipped when panes sit
            // on both of its sides.
            let size = self.spec.size_millis();
            strips.extend(self.panes.keys().map(|&k| (k, k.saturating_add(size))));
            for s in &mut strips {
                s.0 = s.0.clamp(prev, wm);
                s.1 = s.1.clamp(prev, wm);
            }
            strips.retain(|s| s.1 > s.0);
            strips.sort_unstable();
            let mut merged: Vec<(i64, i64)> = Vec::new();
            for s in strips {
                match merged.last_mut() {
                    Some(m) if s.0 <= m.1 => m.1 = m.1.max(s.1),
                    _ => merged.push(s),
                }
            }
            merged
                .into_iter()
                .flat_map(|(a, b)| {
                    completed_windows(
                        self.spec,
                        EventTime::from_millis(a),
                        EventTime::from_millis(b),
                    )
                })
                .collect()
        } else {
            completed_windows(self.spec, self.watermark, watermark)
        };
        self.watermark = watermark;
        let out: Vec<(Window, Vec<P>)> = done
            .into_iter()
            .map(|w| {
                let payloads: Vec<P> = self
                    .panes
                    .range(w.start.as_millis()..w.end.as_millis())
                    .flat_map(|(_, ps)| ps.iter().cloned())
                    .collect();
                (w, payloads)
            })
            .collect();
        // Panes older than any window still open can be dropped: an open
        // window ends after the watermark, so it starts after wm − size.
        let horizon = wm.saturating_sub(self.spec.size_millis());
        self.panes = self.panes.split_off(&horizon.max(0));
        out
    }

    /// The internal pane map and watermark, for engine snapshots.
    pub(crate) fn state(&self) -> (&BTreeMap<i64, Vec<P>>, EventTime) {
        (&self.panes, self.watermark)
    }

    /// Overwrites the pane map and watermark from a snapshot. The spec is
    /// not part of the state: a restored engine is rebuilt from the same
    /// query, so its spec already matches.
    pub(crate) fn restore_state(&mut self, panes: BTreeMap<i64, Vec<P>>, watermark: EventTime) {
        self.panes = panes;
        self.watermark = watermark;
    }

    /// Flushes everything: completes every window that contains a stored
    /// pane, without inventing empty windows past the end of the data.
    pub fn finish(&mut self) -> Vec<(Window, Vec<P>)> {
        let Some(&last_start) = self.panes.keys().next_back() else {
            return Vec::new();
        };
        // The latest window containing the last pane starts at the slide
        // multiple at or before it; closing that window closes them all.
        // Saturating, so a pane start within a slide of either end of
        // `i64` clamps instead of wrapping, however it got here.
        let slide = self.spec.slide_millis();
        let target = last_start
            .div_euclid(slide)
            .saturating_mul(slide)
            .saturating_add(self.spec.size_millis());
        self.advance(EventTime::from_millis(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pane(s: i64, len: i64) -> Window {
        Window::new(EventTime::from_millis(s), EventTime::from_millis(s + len))
    }

    #[test]
    fn tumbling_windows_emit_one_pane_each() {
        let spec = WindowSpec::tumbling_millis(1_000);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..5 {
            w.add_pane(pane(k * 1_000, 1_000), k);
        }
        let done = w.advance(EventTime::from_millis(5_000));
        assert_eq!(done.len(), 5);
        for (k, (win, panes)) in done.iter().enumerate() {
            assert_eq!(win.start.as_millis(), k as i64 * 1_000);
            assert_eq!(panes, &vec![k as i64]);
        }
    }

    #[test]
    fn sliding_windows_cover_overlapping_panes() {
        // 10s window, 5s slide, 2.5s panes: each window covers 4 panes.
        let spec = WindowSpec::sliding_secs(10, 5);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..8 {
            w.add_pane(pane(k * 2_500, 2_500), k);
        }
        let done = w.advance(EventTime::from_secs(20));
        // Completed: [0,10) [5,15) [10,20).
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].1, vec![0, 1, 2, 3]);
        assert_eq!(done[1].1, vec![2, 3, 4, 5]);
        assert_eq!(done[2].1, vec![4, 5, 6, 7]);
    }

    #[test]
    fn multiple_payloads_per_pane_are_all_delivered() {
        let spec = WindowSpec::tumbling_millis(100);
        let mut w: PaneWindower<&str> = PaneWindower::new(spec);
        w.add_pane(pane(0, 100), "worker-0");
        w.add_pane(pane(0, 100), "worker-1");
        let done = w.advance(EventTime::from_millis(100));
        assert_eq!(done[0].1, vec!["worker-0", "worker-1"]);
    }

    #[test]
    fn watermark_never_regresses() {
        let spec = WindowSpec::tumbling_millis(100);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        w.add_pane(pane(0, 100), 1);
        assert_eq!(w.advance(EventTime::from_millis(100)).len(), 1);
        assert!(w.advance(EventTime::from_millis(50)).is_empty());
        assert!(w.advance(EventTime::from_millis(100)).is_empty());
    }

    #[test]
    fn old_panes_are_pruned() {
        let spec = WindowSpec::sliding_secs(10, 5);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..100 {
            w.add_pane(pane(k * 5_000, 5_000), k);
            w.advance(EventTime::from_millis((k + 1) * 5_000));
        }
        // Only panes within one window size of the watermark survive.
        assert!(w.panes.len() <= 3, "{} panes retained", w.panes.len());
    }

    #[test]
    fn finish_flushes_trailing_windows() {
        let spec = WindowSpec::sliding_secs(10, 5);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..3 {
            w.add_pane(pane(k * 5_000, 5_000), k);
        }
        let emitted = w.advance(EventTime::from_secs(10));
        assert_eq!(emitted.len(), 1);
        let rest = w.finish();
        // Remaining windows covering panes 1–2 (and the tail) flush.
        assert!(rest.len() >= 2, "flushed {} windows", rest.len());
        assert!(w.finish().is_empty());
    }

    #[test]
    fn windows_with_no_panes_emit_empty_payloads() {
        let spec = WindowSpec::tumbling_millis(1_000);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        w.add_pane(pane(0, 1_000), 7);
        let done = w.advance(EventTime::from_millis(3_000));
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].1, vec![7]);
        assert!(done[1].1.is_empty());
        assert!(done[2].1.is_empty());
    }

    #[test]
    fn huge_watermark_jump_is_bounded_and_keeps_edge_windows() {
        // One pane of data, then the watermark leaps ~32 years of event
        // time: the quiet interior must be skipped (bounded work and
        // output), while windows covering the stored pane still emit.
        let spec = WindowSpec::tumbling_millis(1_000);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        w.add_pane(pane(0, 1_000), 7);
        let done = w.advance(EventTime::from_millis(1_000_000_000_000));
        assert!(done.len() <= 8, "gap materialized {} windows", done.len());
        assert_eq!(done[0].1, vec![7], "edge window lost its pane");
        // A pane arriving after the jump still completes normally.
        w.add_pane(pane(1_000_000_000_000, 1_000), 9);
        let after = w.advance(EventTime::from_millis(1_000_000_001_000));
        assert!(after.iter().any(|(_, ps)| ps == &vec![9]));
    }
}
