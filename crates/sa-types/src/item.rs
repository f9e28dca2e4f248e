//! Stream items, strata and event time.

use std::fmt;
use std::ops::{Add, Sub};

/// Identifier of a stratum (sub-stream).
///
/// The paper assumes the input stream is stratified based on the source of
/// data items (§2.3): all items from one source follow the same distribution,
/// and sources with identical distributions may share a stratum. A
/// `StratumId` is therefore assigned by whatever produced the item — a
/// workload generator, an aggregator topic, or a user-provided classifier.
///
/// # Example
///
/// ```
/// use sa_types::StratumId;
/// let tcp = StratumId(0);
/// let udp = StratumId(1);
/// assert_ne!(tcp, udp);
/// assert_eq!(tcp.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StratumId(pub u32);

impl StratumId {
    /// Returns the stratum id as a `usize`, convenient for indexing
    /// per-stratum tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StratumId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for StratumId {
    fn from(v: u32) -> Self {
        StratumId(v)
    }
}

/// Event time of a stream item, in milliseconds since an arbitrary epoch.
///
/// Both engines in this workspace are driven purely by event time: the
/// replay tool assigns timestamps according to the configured arrival rates,
/// and windowing, watermarks and batch boundaries all derive from those
/// timestamps. This keeps every experiment deterministic and lets benchmarks
/// run at full machine speed regardless of the simulated arrival rate.
///
/// # Example
///
/// ```
/// use sa_types::EventTime;
/// let t = EventTime::from_secs(10);
/// assert_eq!(t.as_millis(), 10_000);
/// assert_eq!(t + 500, EventTime::from_millis(10_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventTime(i64);

impl EventTime {
    /// The smallest representable event time; useful as an initial watermark.
    pub const MIN: EventTime = EventTime(i64::MIN);
    /// The largest representable event time; a watermark of `MAX` flushes
    /// every open window.
    pub const MAX: EventTime = EventTime(i64::MAX);

    /// Creates an event time from milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        EventTime(ms)
    }

    /// Creates an event time from whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        EventTime(secs * 1_000)
    }

    /// Returns the raw millisecond count.
    #[inline]
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction, returning the difference in milliseconds.
    #[inline]
    pub fn millis_since(self, earlier: EventTime) -> i64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for EventTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl Add<i64> for EventTime {
    type Output = EventTime;
    #[inline]
    fn add(self, rhs: i64) -> EventTime {
        EventTime(self.0 + rhs)
    }
}

impl Sub<i64> for EventTime {
    type Output = EventTime;
    #[inline]
    fn sub(self, rhs: i64) -> EventTime {
        EventTime(self.0 - rhs)
    }
}

impl From<i64> for EventTime {
    fn from(ms: i64) -> Self {
        EventTime(ms)
    }
}

/// A single data item flowing through the system.
///
/// Every item carries the [`StratumId`] of the sub-stream it came from, its
/// [`EventTime`], and a payload `V`. For the paper's *linear queries* (sum,
/// mean, count, histogram — §3.2) the payload is queried through a
/// user-supplied numeric projection, so `V` stays fully generic here.
///
/// # Example
///
/// ```
/// use sa_types::{StreamItem, StratumId, EventTime};
/// let item = StreamItem::new(StratumId(2), EventTime::from_millis(5), 3.25_f64);
/// assert_eq!(item.stratum, StratumId(2));
/// assert_eq!(item.value, 3.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamItem<V> {
    /// The sub-stream (stratum) this item belongs to.
    pub stratum: StratumId,
    /// Event time assigned at the source.
    pub time: EventTime,
    /// The payload.
    pub value: V,
}

impl<V> StreamItem<V> {
    /// Creates a new stream item.
    #[inline]
    pub fn new(stratum: StratumId, time: EventTime, value: V) -> Self {
        StreamItem {
            stratum,
            time,
            value,
        }
    }

    /// Maps the payload, keeping stratum and timestamp.
    ///
    /// ```
    /// use sa_types::{StreamItem, StratumId, EventTime};
    /// let item = StreamItem::new(StratumId(0), EventTime::from_millis(1), 2_u32);
    /// let doubled = item.map(|v| v * 2);
    /// assert_eq!(doubled.value, 4);
    /// ```
    #[inline]
    pub fn map<U, F: FnOnce(V) -> U>(self, f: F) -> StreamItem<U> {
        StreamItem {
            stratum: self.stratum,
            time: self.time,
            value: f(self.value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratum_id_roundtrip_and_display() {
        let s = StratumId(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.to_string(), "S7");
        assert_eq!(StratumId::from(7u32), s);
    }

    #[test]
    fn event_time_arithmetic() {
        let t = EventTime::from_secs(2);
        assert_eq!(t.as_millis(), 2_000);
        assert_eq!((t + 250).as_millis(), 2_250);
        assert_eq!((t - 250).as_millis(), 1_750);
        assert_eq!((t + 500).millis_since(t), 500);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn event_time_ordering() {
        assert!(EventTime::from_millis(1) < EventTime::from_millis(2));
        assert!(EventTime::MIN < EventTime::from_millis(0));
        assert!(EventTime::MAX > EventTime::from_millis(0));
    }

    #[test]
    fn millis_since_saturates() {
        assert_eq!(EventTime::MIN.millis_since(EventTime::MAX), i64::MIN);
    }

    #[test]
    fn item_map_preserves_metadata() {
        let item = StreamItem::new(StratumId(1), EventTime::from_millis(9), 10i64);
        let mapped = item.map(|v| v as f64 / 2.0);
        assert_eq!(mapped.stratum, StratumId(1));
        assert_eq!(mapped.time, EventTime::from_millis(9));
        assert_eq!(mapped.value, 5.0);
    }
}
