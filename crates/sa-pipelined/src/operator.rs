//! The operator abstraction.

use sa_types::{EventTime, StreamItem};

/// A streaming operator instance: receives items and watermarks, emits
/// output items through the provided callback.
///
/// Operators are single-threaded by construction (each instance runs on its
/// own thread and owns its state), so implementations need no internal
/// locking — the same execution model as a Flink task.
pub trait Operator<I, O>: Send {
    /// Handles one arriving item, emitting any number of outputs.
    fn on_item(&mut self, item: StreamItem<I>, out: &mut dyn FnMut(StreamItem<O>));

    /// Handles an advance of the effective (producer-aligned) watermark.
    /// Windowed operators emit completed windows here. The watermark itself
    /// is forwarded downstream by the runtime after this returns.
    fn on_watermark(&mut self, watermark: EventTime, out: &mut dyn FnMut(StreamItem<O>)) {
        let _ = (watermark, out);
    }

    /// Called once after every producer ended and the final
    /// `Watermark(EventTime::MAX)` was delivered; flush any residual state.
    fn on_end(&mut self, out: &mut dyn FnMut(StreamItem<O>)) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Operator<i32, i32> for Identity {
        fn on_item(&mut self, item: StreamItem<i32>, out: &mut dyn FnMut(StreamItem<i32>)) {
            out(item);
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut op = Identity;
        let mut out: Vec<StreamItem<i32>> = Vec::new();
        op.on_watermark(EventTime::from_millis(5), &mut |i| out.push(i));
        op.on_end(&mut |i| out.push(i));
        assert!(out.is_empty());
    }
}
