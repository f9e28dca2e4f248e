//! Pane-based sliding-window assembly.
//!
//! Both execution models sample per *pane* — the batch interval in the
//! batched model, the slide interval in the pipelined model (§5.5: "the
//! sampling operations are performed at every batch interval in the
//! Spark-based systems and at every slide window interval in the
//! Flink-based StreamApprox") — and sliding windows combine the panes they
//! cover. [`PaneWindower`] does that bookkeeping generically.
//!
//! A window is finalized once per slide and covers `size / slide` panes,
//! so every pane is read by that many windows. The windower therefore
//! *lends* a completed window its panes by reference, each payload beside
//! its pane's start, and keeps ownership until no open window can cover
//! them: nothing is copied per window, and a payload need not be `Clone`.
//! What the lent payloads must look like — the ascending-stratum order
//! [`crate::WindowFinalizer`] establishes when a pane is ingested — and
//! how the pane starts are used — to cut the window into the tiles its
//! merge folds — is the business of `combine.rs`, which merges them.

use sa_batched::completed_windows;
use sa_types::{EventTime, Window, WindowSpec};
use std::collections::BTreeMap;

/// Collects per-pane payloads and hands, as the watermark advances, each
/// completed window the payloads of every pane it covers, each as
/// `(pane start in ms, &payload)`.
///
/// Multiple payloads may be registered for the same pane (one per parallel
/// sampling worker); they are all delivered, in registration order. Panes
/// are assigned to the windows containing their start time, which is exact
/// only when the pane length divides both the window size and the slide;
/// the windower never learns the pane length, so that precondition is
/// enforced where panes are cut (the runtime's pane driver refuses an
/// interval that does not tile the window).
///
/// The window grid is anchored on the stream's first pane: the first
/// window starts at the slide multiple at or before it — or at 0, if that
/// is earlier, so a stream that begins late still reports the quiet
/// windows since time 0 — and no window reaching back before that origin
/// is ever emitted.
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
/// let mut done = Vec::new();
/// windower.advance(EventTime::from_secs(10), |window, panes| {
///     done.push((window, panes.iter().map(|&(start, p)| (start, *p)).collect::<Vec<_>>()));
/// });
/// assert_eq!(done.len(), 1); // the [0s, 10s) window, covering panes 0 and 1
/// assert_eq!(done[0].1, vec![(0, 0), (5_000, 1)]); // (pane start in ms, payload)
/// ```
#[derive(Debug, Clone)]
pub struct PaneWindower<P> {
    spec: WindowSpec,
    /// Pane payloads keyed by pane start (ms).
    panes: BTreeMap<i64, Vec<P>>,
    watermark: EventTime,
    /// Start (ms) of the stream's first window; never positive.
    origin: i64,
}

impl<P> PaneWindower<P> {
    /// Creates a windower for the given spec.
    pub fn new(spec: WindowSpec) -> Self {
        PaneWindower {
            spec,
            panes: BTreeMap::new(),
            watermark: EventTime::from_millis(0),
            origin: 0,
        }
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Registers a payload for the pane spanning `pane`.
    pub fn add_pane(&mut self, pane: Window, payload: P) {
        // Nothing stored and the watermark still where `new` left it: this
        // is the stream's first pane. One before time 0 moves the origin,
        // and the watermark with it, back to its own first window.
        if self.panes.is_empty() && self.watermark == EventTime::from_millis(0) {
            self.origin = self.origin_for(pane.start.as_millis());
            self.watermark = EventTime::from_millis(self.origin);
        }
        self.panes
            .entry(pane.start.as_millis())
            .or_default()
            .push(payload);
    }

    /// The origin of a stream whose earliest pane starts at `first_ms`.
    fn origin_for(&self, first_ms: i64) -> i64 {
        let slide = self.spec.slide_millis();
        first_ms.div_euclid(slide).saturating_mul(slide).min(0)
    }

    /// Advances the watermark and calls `emit` for every window that
    /// completed, in end order, lending it the payloads of its panes in
    /// pane order, each beside its pane's start. Windows whose panes were all empty still appear (with
    /// an empty payload list) so callers can emit explicit empty results —
    /// except across a quiet gap longer than twice `window size + slide`:
    /// the interior of such a gap holds only windows no pane can ever
    /// touch, so they are skipped rather than materialized one per slide
    /// (a live session must stay O(1) per watermark advance, however far
    /// event time jumps). Windows overlapping data at either edge of the
    /// gap still complete normally.
    ///
    /// Panes no open window can cover any more are dropped once every
    /// completed window has been emitted.
    pub fn advance(&mut self, watermark: EventTime, mut emit: impl FnMut(Window, &[(i64, &P)])) {
        if watermark <= self.watermark {
            return;
        }
        let span = self.spec.size_millis() + self.spec.slide_millis();
        let origin = EventTime::from_millis(self.origin);
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
                        origin,
                        EventTime::from_millis(a),
                        EventTime::from_millis(b),
                    )
                })
                .collect()
        } else {
            completed_windows(self.spec, origin, self.watermark, watermark)
        };
        self.watermark = watermark;
        let mut lent: Vec<(i64, &P)> = Vec::new();
        for w in done {
            lent.clear();
            lent.extend(
                self.panes
                    .range(w.start.as_millis()..w.end.as_millis())
                    .flat_map(|(&start, payloads)| payloads.iter().map(move |p| (start, p))),
            );
            emit(w, &lent);
        }
        // Panes older than any window still open can be dropped: an open
        // window ends after the watermark, so it starts after wm − size.
        let horizon = wm.saturating_sub(self.spec.size_millis());
        self.panes = self.panes.split_off(&horizon);
    }

    /// The internal pane map and watermark, for engine snapshots.
    pub(crate) fn state(&self) -> (&BTreeMap<i64, Vec<P>>, EventTime) {
        (&self.panes, self.watermark)
    }

    /// Overwrites the pane map and watermark from a snapshot. The spec is
    /// not part of the state: a restored engine is rebuilt from the same
    /// query, so its spec already matches. Neither is the origin: it is
    /// re-derived from the earliest stored pane, which is the stream's
    /// first pane for as long as a window reaching back before the origin
    /// could still complete (that pane starts at or after the origin, and
    /// the origin is then after `watermark − size`). The one state this
    /// misreads is a stream before time 0 restored within a window length
    /// of a jumped gap: the pane the jump landed on becomes its origin.
    pub(crate) fn restore_state(&mut self, panes: BTreeMap<i64, Vec<P>>, watermark: EventTime) {
        let earliest = panes.keys().next().copied();
        self.origin = self.origin_for(earliest.unwrap_or(watermark.as_millis()));
        self.panes = panes;
        self.watermark = watermark;
    }

    /// Flushes everything: completes every window that contains a stored
    /// pane, without inventing empty windows past the end of the data.
    pub fn finish(&mut self, emit: impl FnMut(Window, &[(i64, &P)])) {
        let Some(&last_start) = self.panes.keys().next_back() else {
            return;
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
        self.advance(EventTime::from_millis(target), emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pane(s: i64, len: i64) -> Window {
        Window::new(EventTime::from_millis(s), EventTime::from_millis(s + len))
    }

    /// Advances to `wm_ms` and copies out what each completed window was
    /// lent.
    fn advance<P: Copy>(w: &mut PaneWindower<P>, wm_ms: i64) -> Vec<(Window, Vec<P>)> {
        let mut done = Vec::new();
        w.advance(EventTime::from_millis(wm_ms), |window, panes| {
            done.push((window, panes.iter().map(|(_, p)| **p).collect()));
        });
        done
    }

    fn finish<P: Copy>(w: &mut PaneWindower<P>) -> Vec<(Window, Vec<P>)> {
        let mut done = Vec::new();
        w.finish(|window, panes| done.push((window, panes.iter().map(|(_, p)| **p).collect())));
        done
    }

    #[test]
    fn tumbling_windows_emit_one_pane_each() {
        let spec = WindowSpec::tumbling_millis(1_000);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..5 {
            w.add_pane(pane(k * 1_000, 1_000), k);
        }
        let done = advance(&mut w, 5_000);
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
        let done = advance(&mut w, 20_000);
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
        let done = advance(&mut w, 100);
        assert_eq!(done[0].1, vec!["worker-0", "worker-1"]);
    }

    #[test]
    fn payloads_are_lent_not_cloned() {
        // A payload that is neither `Clone` nor `Copy`: every window
        // covering a pane is handed the very same stored value.
        struct Owned(String);
        let spec = WindowSpec::sliding_millis(200, 100);
        let mut w: PaneWindower<Owned> = PaneWindower::new(spec);
        w.add_pane(pane(0, 100), Owned("first".into()));
        w.add_pane(pane(100, 100), Owned("second".into()));
        let mut seen: Vec<(i64, Vec<*const Owned>, Vec<String>)> = Vec::new();
        let mut record = |window: Window, panes: &[(i64, &Owned)]| {
            seen.push((
                window.start.as_millis(),
                panes.iter().map(|(_, p)| *p as *const Owned).collect(),
                panes.iter().map(|(_, p)| p.0.clone()).collect(),
            ));
        };
        w.advance(EventTime::from_millis(200), &mut record);
        w.finish(&mut record);
        assert_eq!(seen.len(), 2);
        assert_eq!(
            (seen[0].0, &seen[0].2),
            (0, &vec!["first".into(), "second".into()])
        );
        assert_eq!((seen[1].0, &seen[1].2), (100, &vec!["second".to_string()]));
        assert_eq!(seen[0].1[1], seen[1].1[0], "the second pane was copied");
    }

    #[test]
    fn watermark_never_regresses() {
        let spec = WindowSpec::tumbling_millis(100);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        w.add_pane(pane(0, 100), 1);
        assert_eq!(advance(&mut w, 100).len(), 1);
        assert!(advance(&mut w, 50).is_empty());
        assert!(advance(&mut w, 100).is_empty());
    }

    #[test]
    fn old_panes_are_pruned() {
        let spec = WindowSpec::sliding_secs(10, 5);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        for k in 0..100 {
            w.add_pane(pane(k * 5_000, 5_000), k);
            advance(&mut w, (k + 1) * 5_000);
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
        let emitted = advance(&mut w, 10_000);
        assert_eq!(emitted.len(), 1);
        let rest = finish(&mut w);
        // Remaining windows covering panes 1–2 (and the tail) flush.
        assert!(rest.len() >= 2, "flushed {} windows", rest.len());
        assert!(finish(&mut w).is_empty());
    }

    #[test]
    fn windows_with_no_panes_emit_empty_payloads() {
        let spec = WindowSpec::tumbling_millis(1_000);
        let mut w: PaneWindower<i64> = PaneWindower::new(spec);
        w.add_pane(pane(0, 1_000), 7);
        let done = advance(&mut w, 3_000);
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
        let done = advance(&mut w, 1_000_000_000_000);
        assert!(done.len() <= 8, "gap materialized {} windows", done.len());
        assert_eq!(done[0].1, vec![7], "edge window lost its pane");
        // A pane arriving after the jump still completes normally.
        w.add_pane(pane(1_000_000_000_000, 1_000), 9);
        let after = advance(&mut w, 1_000_000_001_000);
        assert!(after.iter().any(|(_, ps)| ps == &vec![9]));
    }

    /// Feeds `count` consecutive 1 s panes from `first_ms` on, advancing
    /// after each like an engine does, and finishes.
    fn run_from(first_ms: i64, count: i64) -> Vec<(Window, Vec<i64>)> {
        let mut w: PaneWindower<i64> = PaneWindower::new(WindowSpec::sliding_secs(3, 1));
        let mut done = Vec::new();
        for k in 0..count {
            let start = first_ms + k * 1_000;
            w.add_pane(pane(start, 1_000), k);
            done.extend(advance(&mut w, start + 1_000));
        }
        done.extend(finish(&mut w));
        done
    }

    #[test]
    fn a_stream_before_time_zero_is_the_same_stream_shifted() {
        let reference = run_from(0, 12);
        assert_eq!(reference[0].0, pane(0, 3_000));
        // Wholly negative, ending exactly at 0, and straddling 0.
        for shift in [-20_000, -12_000, -5_000] {
            let shifted = run_from(shift, 12);
            assert_eq!(shifted.len(), reference.len(), "shift {shift}");
            for ((win, panes), (ref_win, ref_panes)) in shifted.iter().zip(&reference) {
                assert_eq!(win.start, ref_win.start + shift);
                assert_eq!(win.end, ref_win.end + shift);
                assert_eq!(panes, ref_panes);
            }
        }
    }

    #[test]
    fn a_stream_that_begins_late_still_reports_from_time_zero() {
        // Unchanged behaviour for non-negative streams: the origin stays
        // at 0, so the quiet windows before the first pane are emitted.
        let late = run_from(4_000, 2);
        assert_eq!(late[0].0, pane(0, 3_000));
        assert!(late[0].1.is_empty());
    }

    #[test]
    fn a_restored_windower_keeps_its_negative_origin() {
        let mut w: PaneWindower<i64> = PaneWindower::new(WindowSpec::sliding_secs(3, 1));
        w.add_pane(pane(-7_000, 1_000), 0);
        assert!(advance(&mut w, -6_000).is_empty());
        let (panes, watermark) = w.state();
        let mut restored: PaneWindower<i64> = PaneWindower::new(w.spec());
        restored.restore_state(panes.clone(), watermark);
        // Neither emits the windows reaching back before −7 s.
        for w in [&mut w, &mut restored] {
            w.add_pane(pane(-6_000, 1_000), 1);
            assert!(advance(w, -5_000).is_empty());
            let done = finish(w);
            assert_eq!(done[0], (pane(-7_000, 3_000), vec![0, 1]));
            assert_eq!(done.len(), 2);
        }
    }
}
