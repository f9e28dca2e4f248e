//! A pipelined stream-processing engine — the Apache Flink analogue of the
//! StreamApprox reproduction (§2.2, §4.1.2 of the paper).
//!
//! Items stream operator-to-operator over bounded channels in small record
//! buffers (no batch formation), each operator instance owns a thread and
//! its state, and event-time progress travels as watermarks aligned on the
//! minimum across producers — the properties that let the paper's
//! Flink-based StreamApprox out-run the batched variant.
//!
//! The surface is exactly what the `streamapprox` crate's pipelined engine
//! builds its topology from:
//!
//! * [`Flow`] — topology builder: [`Flow::source_push`] (a [`PushSource`]
//!   feeding the running dataflow from the caller's thread, with the
//!   watermarks the caller hands it) `→ then(parallelism, make) → … →`
//!   [`Flow::into_handle`] (a [`FlowHandle`] draining results while
//!   execution proceeds). Every stage boundary deals records round-robin
//!   over the next stage's instances.
//! * [`Operator`] — the operator trait. The stateful operators (OASRS
//!   sampling, windowed estimation) live in the `streamapprox` crate.
//!
//! # Example
//!
//! A tumbling one-second counter behind two parallel pass-through
//! instances: the caller marks each second's end with a watermark, and the
//! counter emits a window only once *both* its producers have passed it.
//!
//! ```
//! use sa_pipelined::{Flow, Operator};
//! use sa_types::{EventTime, StratumId, StreamItem};
//! use std::collections::BTreeMap;
//!
//! struct Pass;
//! impl Operator<u64, u64> for Pass {
//!     fn on_item(&mut self, item: StreamItem<u64>, out: &mut dyn FnMut(StreamItem<u64>)) {
//!         out(item);
//!     }
//! }
//!
//! #[derive(Default)]
//! struct PerSecond(BTreeMap<i64, u64>);
//! impl Operator<u64, (i64, u64)> for PerSecond {
//!     fn on_item(&mut self, item: StreamItem<u64>, _: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
//!         *self.0.entry(item.time.as_millis() / 1_000).or_default() += 1;
//!     }
//!     fn on_watermark(&mut self, wm: EventTime, out: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
//!         while let Some((&s, &n)) = self.0.first_key_value() {
//!             if (s + 1) * 1_000 > wm.as_millis() {
//!                 break;
//!             }
//!             self.0.remove(&s);
//!             out(StreamItem::new(StratumId(0), wm, (s, n)));
//!         }
//!     }
//! }
//!
//! let (mut source, flow) = Flow::source_push();
//! let sink = flow
//!     .then(2, |_| Pass)
//!     .then(1, |_| PerSecond::default())
//!     .into_handle();
//! for i in 0..3_000u64 {
//!     let t = EventTime::from_millis(i as i64);
//!     if i % 1_000 == 0 {
//!         source.watermark(t).unwrap(); // the previous second is complete
//!     }
//!     source.push(StreamItem::new(StratumId(0), t, i)).unwrap();
//! }
//! drop(source); // end of stream: the final watermark flushes the last second
//! let windows: Vec<(i64, u64)> = sink.drain_to_end().iter().map(|i| i.value).collect();
//! assert_eq!(windows, vec![(0, 1_000), (1, 1_000), (2, 1_000)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod message;
mod operator;

pub use flow::{Flow, FlowHandle, PushSource};
pub use operator::Operator;
