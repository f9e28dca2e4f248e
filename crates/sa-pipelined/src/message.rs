//! Signals flowing on the channels between operator instances.

use sa_types::{EventTime, StreamItem};

/// One message on an inter-operator channel.
///
/// Data travels as small *record batches*, mirroring Flink's network
/// buffers: records are forwarded as soon as a buffer fills (or a
/// watermark forces a flush), never waiting for a whole dataset — the
/// defining property of the pipelined model (§2.2) — while amortizing the
/// channel synchronization over a few records. Watermarks carry event-time
/// progress; `End` closes a producer's contribution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Signal<T> {
    /// A buffer of data items, in the producer's emission order.
    Items(Vec<StreamItem<T>>),
    /// Every future item from this producer has `time >= watermark`.
    Watermark(EventTime),
    /// The producer is done; no more signals will follow from it.
    End,
}

/// A signal tagged with the index of the upstream instance that sent it,
/// so consumers can align watermarks across their producers.
pub(crate) type Tagged<T> = (usize, Signal<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::StratumId;

    #[test]
    fn signals_compare_by_payload() {
        let a: Signal<u32> = Signal::Watermark(EventTime::from_millis(5));
        let b: Signal<u32> = Signal::Watermark(EventTime::from_millis(5));
        assert_eq!(a, b);
        let items = Signal::Items(vec![StreamItem::new(
            StratumId(1),
            EventTime::from_millis(3),
            9u32,
        )]);
        assert_ne!(items, Signal::End);
    }
}
