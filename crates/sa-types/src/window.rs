//! Sliding-window specification and assignment.
//!
//! Both stream-processing models support time-based sliding windows (§2.2 of
//! the paper): a window of `size` slides by `slide`, newly arriving items are
//! added and old items removed as the window moves. The evaluation uses a
//! 10-second window sliding by 5 seconds (§6.1).

use crate::item::EventTime;
use std::fmt;

/// A concrete half-open time window `[start, end)`.
///
/// # Example
///
/// ```
/// use sa_types::{Window, EventTime};
/// let w = Window::new(EventTime::from_secs(0), EventTime::from_secs(10));
/// assert!(w.contains(EventTime::from_secs(5)));
/// assert!(!w.contains(EventTime::from_secs(10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Window {
    /// Inclusive start of the window.
    pub start: EventTime,
    /// Exclusive end of the window.
    pub end: EventTime,
}

impl Window {
    /// Creates a window covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` (empty or inverted windows are never valid).
    pub fn new(start: EventTime, end: EventTime) -> Self {
        assert!(end > start, "window end must be after start");
        Window { start, end }
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: EventTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in milliseconds.
    #[inline]
    pub fn len_millis(&self) -> i64 {
        self.end.millis_since(self.start)
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A sliding-window specification: window `size` and `slide` step, both in
/// milliseconds.
///
/// When `slide == size` the windows tumble (each instant belongs to exactly
/// one window); when `slide < size` each instant belongs to `size / slide`
/// overlapping windows. Windows are aligned to multiples of `slide` from
/// event-time zero, matching the usual engine behaviour.
///
/// # Example
///
/// ```
/// use sa_types::{WindowSpec, EventTime};
/// let spec = WindowSpec::sliding_secs(10, 5);
/// let ws: Vec<_> = spec.windows_containing(EventTime::from_secs(7)).collect();
/// assert_eq!(ws.len(), 2);
/// assert_eq!(ws[0].start, EventTime::from_secs(0));
/// assert_eq!(ws[1].start, EventTime::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    size_ms: i64,
    slide_ms: i64,
}

impl WindowSpec {
    /// Creates a sliding-window spec from millisecond durations.
    ///
    /// # Panics
    ///
    /// Panics if `size_ms == 0`, `slide_ms == 0`, or `slide_ms > size_ms`
    /// (gaps between windows would silently drop items).
    pub fn sliding_millis(size_ms: i64, slide_ms: i64) -> Self {
        assert!(size_ms > 0, "window size must be positive");
        assert!(slide_ms > 0, "window slide must be positive");
        assert!(
            slide_ms <= size_ms,
            "slide larger than size would drop items"
        );
        WindowSpec { size_ms, slide_ms }
    }

    /// Creates a sliding-window spec from second durations.
    pub fn sliding_secs(size_s: i64, slide_s: i64) -> Self {
        Self::sliding_millis(size_s * 1_000, slide_s * 1_000)
    }

    /// Creates a tumbling-window spec (slide equals size).
    pub fn tumbling_millis(size_ms: i64) -> Self {
        Self::sliding_millis(size_ms, size_ms)
    }

    /// Window size in milliseconds.
    #[inline]
    pub fn size_millis(&self) -> i64 {
        self.size_ms
    }

    /// Slide step in milliseconds.
    #[inline]
    pub fn slide_millis(&self) -> i64 {
        self.slide_ms
    }

    /// Number of overlapping windows that cover any single instant.
    #[inline]
    pub fn overlap(&self) -> usize {
        (self.size_ms / self.slide_ms) as usize
    }

    /// All windows that contain event time `t`, earliest first.
    ///
    /// There are at most `ceil(size / slide)` such windows. Windows never
    /// start before event time zero, mirroring engines that only open windows
    /// once the stream has started.
    pub fn windows_containing(&self, t: EventTime) -> impl Iterator<Item = Window> + '_ {
        let ts = t.as_millis();
        // Start of the latest window containing t: floor(ts / slide) * slide.
        let last_start = ts.div_euclid(self.slide_ms) * self.slide_ms;
        // Earliest possible start: the first multiple of slide that is
        // > ts - size, clamped to zero.
        let earliest =
            (ts - self.size_ms).div_euclid(self.slide_ms) * self.slide_ms + self.slide_ms;
        let first_start = earliest.max(0).min(last_start);
        let size = self.size_ms;
        let slide = self.slide_ms;
        (0..)
            .map(move |k| first_start + k * slide)
            .take_while(move |s| *s <= last_start)
            .map(move |s| Window::new(EventTime::from_millis(s), EventTime::from_millis(s + size)))
    }

    /// The single window starting at `start` under this spec.
    pub fn window_at(&self, start: EventTime) -> Window {
        Window::new(start, start + self.size_ms)
    }
}

impl Default for WindowSpec {
    /// The paper's evaluation default: a 10-second window sliding by 5
    /// seconds (§6.1).
    fn default() -> Self {
        WindowSpec::sliding_secs(10, 5)
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window({}ms / slide {}ms)", self.size_ms, self.slide_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_half_open() {
        let w = Window::new(EventTime::from_millis(100), EventTime::from_millis(200));
        assert!(w.contains(EventTime::from_millis(100)));
        assert!(w.contains(EventTime::from_millis(199)));
        assert!(!w.contains(EventTime::from_millis(200)));
        assert!(!w.contains(EventTime::from_millis(99)));
        assert_eq!(w.len_millis(), 100);
    }

    #[test]
    #[should_panic(expected = "window end must be after start")]
    fn window_rejects_inverted() {
        let _ = Window::new(EventTime::from_millis(5), EventTime::from_millis(5));
    }

    #[test]
    fn tumbling_assigns_exactly_one_window() {
        let spec = WindowSpec::tumbling_millis(1_000);
        for ms in [0, 1, 999, 1_000, 1_500, 9_999] {
            let ws: Vec<_> = spec
                .windows_containing(EventTime::from_millis(ms))
                .collect();
            assert_eq!(ws.len(), 1, "t={ms}");
            assert!(ws[0].contains(EventTime::from_millis(ms)));
            assert_eq!(ws[0].start.as_millis() % 1_000, 0);
        }
    }

    #[test]
    fn sliding_assigns_overlap_windows() {
        let spec = WindowSpec::sliding_secs(10, 5);
        assert_eq!(spec.overlap(), 2);
        let ws: Vec<_> = spec.windows_containing(EventTime::from_secs(12)).collect();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].start, EventTime::from_secs(5));
        assert_eq!(ws[1].start, EventTime::from_secs(10));
        for w in ws {
            assert!(w.contains(EventTime::from_secs(12)));
        }
    }

    #[test]
    fn early_times_clamp_to_stream_start() {
        let spec = WindowSpec::sliding_secs(10, 5);
        // t=2s is only covered by the window starting at 0 (a window starting
        // at -5s never opens).
        let ws: Vec<_> = spec.windows_containing(EventTime::from_secs(2)).collect();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].start, EventTime::from_secs(0));
    }

    #[test]
    fn default_matches_paper_setup() {
        let spec = WindowSpec::default();
        assert_eq!(spec.size_millis(), 10_000);
        assert_eq!(spec.slide_millis(), 5_000);
    }

    #[test]
    #[should_panic(expected = "slide larger than size")]
    fn rejects_gappy_spec() {
        let _ = WindowSpec::sliding_millis(5, 10);
    }

    #[test]
    fn windows_containing_are_all_and_only_the_covers() {
        // Brute-force cross-check against a direct scan of candidate starts.
        let spec = WindowSpec::sliding_millis(30, 10);
        for ms in 0..200 {
            let t = EventTime::from_millis(ms);
            let got: Vec<_> = spec.windows_containing(t).collect();
            let expected: Vec<_> = (0..=ms / 10)
                .map(|k| spec.window_at(EventTime::from_millis(k * 10)))
                .filter(|w| w.contains(t))
                .collect();
            assert_eq!(got, expected, "t={ms}");
        }
    }
}
