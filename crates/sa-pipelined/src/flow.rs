//! Topology construction and execution: operator instances on threads,
//! bounded channels, round-robin exchanges and watermark alignment.

use crate::message::{Signal, Tagged};
use crate::operator::Operator;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use sa_types::{EventTime, SaError, StreamItem};
use std::thread::JoinHandle;

/// Capacity of every inter-operator channel and of the push source's feed.
/// Bounded channels give the pipeline natural backpressure: a slow
/// operator stalls its producers instead of buffering unboundedly.
const CHANNEL_CAPACITY: usize = 256;

/// Records per network buffer (the Flink-style record batch amortizing
/// channel synchronization; watermarks flush partial buffers immediately).
const RECORD_BUFFER: usize = 64;

/// One producer's outgoing side: deals records round-robin over the next
/// stage's instances (Flink's `rebalance`), starting at instance
/// `producer_idx % n` so parallel producers do not all begin on the same
/// one.
struct Routing<T> {
    senders: Vec<Sender<Tagged<T>>>,
    /// One record buffer per downstream target.
    buffers: Vec<Vec<StreamItem<T>>>,
    producer_idx: usize,
    rr_next: usize,
    /// Set once any downstream receiver is gone (operator death), so
    /// producers can stop instead of feeding a dead pipeline forever.
    dead: bool,
}

impl<T> Routing<T> {
    fn new(senders: Vec<Sender<Tagged<T>>>, producer_idx: usize) -> Self {
        let rr_next = producer_idx % senders.len();
        let buffers = senders.iter().map(|_| Vec::new()).collect();
        Routing {
            senders,
            buffers,
            producer_idx,
            rr_next,
            dead: false,
        }
    }

    fn send_item(&mut self, item: StreamItem<T>) {
        let target = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.senders.len();
        let buffer = &mut self.buffers[target];
        buffer.push(item);
        if buffer.len() >= RECORD_BUFFER {
            let batch = std::mem::take(buffer);
            // A closed receiver means downstream shut down (a panicked
            // operator or a dropped sink); drop the batch and remember.
            if self.senders[target]
                .send((self.producer_idx, Signal::Items(batch)))
                .is_err()
            {
                self.dead = true;
            }
        }
    }

    /// Flushes every partial buffer (watermarks and end-of-stream must not
    /// overtake buffered records).
    fn flush(&mut self) {
        let mut died = false;
        for (target, buffer) in self.buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                let batch = std::mem::take(buffer);
                if self.senders[target]
                    .send((self.producer_idx, Signal::Items(batch)))
                    .is_err()
                {
                    died = true;
                }
            }
        }
        self.dead |= died;
    }

    fn broadcast_watermark(&mut self, wm: EventTime) {
        self.flush();
        for s in &self.senders {
            if s.send((self.producer_idx, Signal::Watermark(wm))).is_err() {
                self.dead = true;
            }
        }
    }

    fn broadcast_end(&mut self) {
        self.flush();
        for s in &self.senders {
            let _ = s.send((self.producer_idx, Signal::End));
        }
    }
}

/// The per-instance event loop: aligns watermarks across producers (the
/// effective watermark is the minimum over live producers), drives the
/// operator, and forwards progress downstream.
fn instance_loop<I, O, Op>(
    rx: Receiver<Tagged<I>>,
    num_producers: usize,
    mut op: Op,
    mut routing: Routing<O>,
) where
    Op: Operator<I, O>,
{
    let mut wms = vec![EventTime::MIN; num_producers];
    let mut ended = vec![false; num_producers];
    let mut ended_count = 0usize;
    let mut current_wm = EventTime::MIN;
    while ended_count < num_producers {
        let (p, signal) = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        match signal {
            Signal::Items(batch) => {
                let routing_ref = &mut routing;
                for item in batch {
                    op.on_item(item, &mut |out| routing_ref.send_item(out));
                }
            }
            Signal::Watermark(wm) => {
                if wm > wms[p] {
                    wms[p] = wm;
                    let effective = *wms.iter().min().expect("at least one producer");
                    if effective > current_wm {
                        current_wm = effective;
                        let routing_ref = &mut routing;
                        op.on_watermark(effective, &mut |out| routing_ref.send_item(out));
                        routing.broadcast_watermark(effective);
                    }
                }
            }
            Signal::End => {
                if !ended[p] {
                    ended[p] = true;
                    ended_count += 1;
                    wms[p] = EventTime::MAX;
                    let effective = *wms.iter().min().expect("at least one producer");
                    if effective > current_wm {
                        current_wm = effective;
                        let routing_ref = &mut routing;
                        op.on_watermark(effective, &mut |out| routing_ref.send_item(out));
                        routing.broadcast_watermark(effective);
                    }
                }
            }
        }
    }
    let routing_ref = &mut routing;
    op.on_end(&mut |out| routing_ref.send_item(out));
    routing.broadcast_end();
}

type SpawnFn<T> = Box<dyn FnOnce(Vec<Sender<Tagged<T>>>) -> Vec<JoinHandle<()>> + Send>;

/// The feeding half of a push-driven source stage (see
/// [`Flow::source_push`]): items pushed here enter the dataflow live.
///
/// Dropping the handle ends the stream: the source emits a final
/// `EventTime::MAX` watermark and end-of-stream, flushing every window
/// still open downstream.
#[derive(Debug)]
pub struct PushSource<T> {
    tx: Sender<StreamItem<T>>,
}

impl<T> PushSource<T> {
    /// Feeds one item into the dataflow. Blocks while the pipeline is
    /// saturated (bounded channels give the push path backpressure).
    ///
    /// Items must be pushed in non-decreasing event-time order — the
    /// source derives its watermarks from the item times it sees.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the dataflow has shut down (e.g. a
    /// downstream operator panicked — the source notices its dead
    /// downstream and exits, closing this feed). Detection is prompt but
    /// asynchronous: the few pushes in flight when the operator dies may
    /// still return `Ok`.
    pub fn push(&self, item: StreamItem<T>) -> Result<(), SaError> {
        self.tx
            .send(item)
            .map_err(|_| SaError::Disconnected("pipelined push source"))
    }
}

/// A running dataflow's sink side, produced by [`Flow::into_handle`]:
/// drains emitted items incrementally while the pipeline executes.
///
/// The sink channel is unbounded so a caller that polls lazily never
/// stalls the pipeline — results are small aggregates, the firehose of raw
/// items stays behind the bounded inter-operator channels.
#[derive(Debug)]
pub struct FlowHandle<T> {
    rx: Receiver<Tagged<T>>,
    handles: Vec<JoinHandle<()>>,
    producers: usize,
    ended: usize,
}

impl<T> FlowHandle<T> {
    /// Takes every item emitted since the last drain, without blocking.
    pub fn try_drain(&mut self) -> Vec<StreamItem<T>> {
        let mut out = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok((_, Signal::Items(batch))) => out.extend(batch),
                Ok((_, Signal::Watermark(_))) => {}
                Ok((_, Signal::End)) => self.ended += 1,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        out
    }

    /// Blocks until the dataflow completes, returning the remaining items
    /// and joining every operator thread.
    ///
    /// Drop the [`PushSource`] first, or this blocks forever waiting for an
    /// end-of-stream that cannot come.
    pub fn drain_to_end(mut self) -> Vec<StreamItem<T>> {
        let mut out = Vec::new();
        while self.ended < self.producers {
            match self.rx.recv() {
                Ok((_, Signal::Items(batch))) => out.extend(batch),
                Ok((_, Signal::Watermark(_))) => {}
                Ok((_, Signal::End)) => self.ended += 1,
                Err(_) => break,
            }
        }
        for h in self.handles {
            let _ = h.join();
        }
        out
    }
}

/// A dataflow under construction, typed by the items its last stage emits.
///
/// Stages spawn as the topology is built (each `then` call wires and starts
/// the upstream stage); [`Flow::into_handle`] attaches the sink. Bounded
/// channels keep memory finite while construction races execution.
///
/// # Example
///
/// ```
/// use sa_pipelined::{Flow, Operator};
/// use sa_types::{EventTime, StratumId, StreamItem};
///
/// /// Doubles every value.
/// struct Double;
/// impl Operator<u32, u64> for Double {
///     fn on_item(&mut self, item: StreamItem<u32>, out: &mut dyn FnMut(StreamItem<u64>)) {
///         out(item.map(|v| u64::from(v) * 2));
///     }
/// }
///
/// let (source, flow) = Flow::source_push(10);
/// let sink = flow.then(2, |_| Double).into_handle();
/// for i in 0..100u32 {
///     let item = StreamItem::new(StratumId(i % 3), EventTime::from_millis(i64::from(i)), i);
///     source.push(item).unwrap();
/// }
/// drop(source); // end of stream
/// let sum: u64 = sink.drain_to_end().iter().map(|i| i.value).sum();
/// assert_eq!(sum, (0..100u64).map(|v| v * 2).sum::<u64>());
/// ```
pub struct Flow<T> {
    spawn: SpawnFn<T>,
    parallelism: usize,
}

impl<T: Send + 'static> Flow<T> {
    /// A single-instance source fed live through the returned
    /// [`PushSource`] handle. It emits a watermark at the first item and
    /// whenever event time has advanced by `watermark_interval_ms` since
    /// the last one, then a final `EventTime::MAX` watermark when the
    /// handle is dropped.
    ///
    /// The feed channel is bounded, so pushes block (backpressure) while
    /// the pipeline is saturated rather than buffering unboundedly.
    ///
    /// # Panics
    ///
    /// Panics if `watermark_interval_ms` is not positive.
    pub fn source_push(watermark_interval_ms: i64) -> (PushSource<T>, Flow<T>) {
        assert!(
            watermark_interval_ms > 0,
            "watermark interval must be positive"
        );
        let (tx, rx) = bounded::<StreamItem<T>>(CHANNEL_CAPACITY);
        let flow = Flow {
            parallelism: 1,
            spawn: Box::new(move |senders| {
                let mut routing = Routing::new(senders, 0);
                vec![std::thread::Builder::new()
                    .name("sa-source-push".into())
                    .spawn(move || {
                        let mut last_wm = EventTime::MIN;
                        while let Ok(item) = rx.recv() {
                            if last_wm == EventTime::MIN
                                || item.time.millis_since(last_wm) >= watermark_interval_ms
                            {
                                last_wm = item.time;
                                routing.broadcast_watermark(item.time);
                            }
                            routing.send_item(item);
                            // A dead downstream cannot recover; exiting
                            // closes the feed channel, so the pusher gets
                            // `Disconnected` instead of silently-ignored
                            // pushes.
                            if routing.dead {
                                break;
                            }
                        }
                        routing.broadcast_watermark(EventTime::MAX);
                        routing.broadcast_end();
                    })
                    .expect("spawning push source thread")]
            }),
        };
        (PushSource { tx }, flow)
    }

    /// Appends a stage of `parallelism` operator instances, each upstream
    /// instance dealing its records round-robin over them; `make(i)` builds
    /// the operator for instance `i`. The upstream stage starts executing
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn then<O, Op, Mk>(self, parallelism: usize, make: Mk) -> Flow<O>
    where
        O: Send + 'static,
        Op: Operator<T, O> + 'static,
        Mk: FnMut(usize) -> Op + Send + 'static,
    {
        assert!(parallelism > 0, "stage parallelism must be positive");
        type Channels<T> = (Vec<Sender<Tagged<T>>>, Vec<Receiver<Tagged<T>>>);
        let (txs, rxs): Channels<T> = (0..parallelism).map(|_| bounded(CHANNEL_CAPACITY)).unzip();
        let upstream_handles = (self.spawn)(txs);
        let num_producers = self.parallelism;
        Flow {
            parallelism,
            spawn: Box::new(move |down_senders| {
                let mut handles = upstream_handles;
                let mut make = make;
                for (q, rx) in rxs.into_iter().enumerate() {
                    let op = make(q);
                    let routing = Routing::new(down_senders.clone(), q);
                    handles.push(
                        std::thread::Builder::new()
                            .name(format!("sa-op-{q}"))
                            .spawn(move || instance_loop(rx, num_producers, op, routing))
                            .expect("spawning operator thread"),
                    );
                }
                handles
            }),
        }
    }

    /// Attaches a sink and starts the dataflow, returning a [`FlowHandle`]
    /// that drains emitted items incrementally while execution proceeds.
    pub fn into_handle(self) -> FlowHandle<T> {
        let (tx, rx) = unbounded();
        let producers = self.parallelism;
        let handles = (self.spawn)(vec![tx]);
        FlowHandle {
            rx,
            handles,
            producers,
            ended: 0,
        }
    }
}

impl<T> std::fmt::Debug for Flow<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flow")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::StratumId;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Barrier};

    fn items(n: u32) -> Vec<StreamItem<u32>> {
        (0..n)
            .map(|i| StreamItem::new(StratumId(i % 4), EventTime::from_millis(i as i64), i))
            .collect()
    }

    /// Builds a push-fed flow with `build`, pushes `stream`, ends it, and
    /// returns everything the sink received.
    fn run<O: Send + 'static>(
        stream: Vec<StreamItem<u32>>,
        watermark_interval_ms: i64,
        build: impl FnOnce(Flow<u32>) -> FlowHandle<O>,
    ) -> Vec<StreamItem<O>> {
        let (source, flow) = Flow::source_push(watermark_interval_ms);
        let sink = build(flow);
        for item in stream {
            source.push(item).expect("pipeline alive");
        }
        drop(source);
        sink.drain_to_end()
    }

    struct Identity;
    impl Operator<u32, u32> for Identity {
        fn on_item(&mut self, item: StreamItem<u32>, out: &mut dyn FnMut(StreamItem<u32>)) {
            out(item);
        }
    }

    struct Scale(u32);
    impl Operator<u32, u32> for Scale {
        fn on_item(&mut self, item: StreamItem<u32>, out: &mut dyn FnMut(StreamItem<u32>)) {
            let k = self.0;
            out(item.map(|v| v * k));
        }
    }

    struct KeepEven;
    impl Operator<u32, u32> for KeepEven {
        fn on_item(&mut self, item: StreamItem<u32>, out: &mut dyn FnMut(StreamItem<u32>)) {
            if item.value % 2 == 0 {
                out(item);
            }
        }
    }

    /// Stamps each item with its instance index, to observe routing.
    struct TagInstance(usize);
    impl Operator<u32, (usize, u32)> for TagInstance {
        fn on_item(
            &mut self,
            item: StreamItem<u32>,
            out: &mut dyn FnMut(StreamItem<(usize, u32)>),
        ) {
            let idx = self.0;
            out(item.map(|v| (idx, v)));
        }
    }

    #[test]
    fn source_to_sink_roundtrip() {
        let out = run(items(500), 50, Flow::into_handle);
        let vals: Vec<u32> = out.iter().map(|i| i.value).collect();
        assert_eq!(vals, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn map_filter_chain() {
        let out = run(items(100), 10, |f| {
            f.then(1, |_| KeepEven).then(1, |_| Scale(10)).into_handle()
        });
        let mut vals: Vec<u32> = out.iter().map(|i| i.value).collect();
        vals.sort_unstable();
        let expected: Vec<u32> = (0..100).filter(|v| v % 2 == 0).map(|v| v * 10).collect();
        assert_eq!(vals, expected);
    }

    #[test]
    fn rebalance_preserves_multiset_across_parallel_stage() {
        let out = run(items(1_000), 100, |f| f.then(4, |_| Identity).into_handle());
        let mut vals: Vec<u32> = out.iter().map(|i| i.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn rebalance_deals_records_round_robin() {
        // One producer starts at instance 0 and deals in turn.
        let out = run(items(300), 50, |f| f.then(3, TagInstance).into_handle());
        assert_eq!(out.len(), 300);
        for item in &out {
            let (instance, v) = item.value;
            assert_eq!(instance, v as usize % 3, "value {v}");
        }
    }

    /// A windowed counter: counts items per tumbling second, emits
    /// `(window_start_s, count)` when the watermark passes the window end.
    struct SecondCounter {
        counts: BTreeMap<i64, u64>,
    }
    impl Operator<u32, (i64, u64)> for SecondCounter {
        fn on_item(&mut self, item: StreamItem<u32>, _out: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
            let sec = item.time.as_millis().div_euclid(1_000);
            *self.counts.entry(sec).or_default() += 1;
        }
        fn on_watermark(&mut self, wm: EventTime, out: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
            let due: Vec<i64> = self
                .counts
                .keys()
                .copied()
                .filter(|s| (s + 1) * 1_000 <= wm.as_millis())
                .collect();
            for s in due {
                let count = self.counts.remove(&s).expect("key listed");
                out(StreamItem::new(
                    StratumId(0),
                    EventTime::from_millis((s + 1) * 1_000),
                    (s, count),
                ));
            }
        }
    }

    #[test]
    fn watermarks_drive_window_emission() {
        // 10 items per second over 5 seconds.
        let stream: Vec<StreamItem<u32>> = (0..50)
            .map(|i| StreamItem::new(StratumId(0), EventTime::from_millis(i * 100), i as u32))
            .collect();
        let out = run(stream, 100, |f| {
            f.then(1, |_| SecondCounter {
                counts: BTreeMap::new(),
            })
            .into_handle()
        });
        let windows: Vec<(i64, u64)> = out.iter().map(|i| i.value).collect();
        assert_eq!(windows, vec![(0, 10), (1, 10), (2, 10), (3, 10), (4, 10)]);
    }

    #[test]
    fn watermarks_align_on_minimum_across_producers() {
        // Two producers feed the counter. Instance 1 holds its first
        // record until instance 0 has passed its last one, so instance 0's
        // watermarks run seconds ahead. The counter may only close a
        // second once the *slower* producer has passed it: every second
        // is reported once, with all of its items.
        struct Gate {
            instance: usize,
            barrier: Option<Arc<Barrier>>,
        }
        impl Operator<u32, u32> for Gate {
            fn on_item(&mut self, item: StreamItem<u32>, out: &mut dyn FnMut(StreamItem<u32>)) {
                let last_of_instance_0 = self.instance == 0 && item.value == 38;
                if self.instance == 1 || last_of_instance_0 {
                    if let Some(barrier) = self.barrier.take() {
                        barrier.wait();
                    }
                }
                out(item);
            }
        }
        let barrier = Arc::new(Barrier::new(2));
        let stream: Vec<StreamItem<u32>> = (0..40)
            .map(|i| StreamItem::new(StratumId(0), EventTime::from_millis(i * 100), i as u32))
            .collect();
        let out = run(stream, 100, |f| {
            f.then(2, move |instance| Gate {
                instance,
                barrier: Some(Arc::clone(&barrier)),
            })
            .then(1, |_| SecondCounter {
                counts: BTreeMap::new(),
            })
            .into_handle()
        });
        let windows: Vec<(i64, u64)> = out.iter().map(|i| i.value).collect();
        assert_eq!(windows, vec![(0, 10), (1, 10), (2, 10), (3, 10)]);
    }

    #[test]
    fn handle_drains_incrementally_before_end() {
        let (push, flow) = Flow::source_push(10);
        let mut handle = flow.then(1, |_| Identity).into_handle();
        for item in items(100) {
            push.push(item).expect("pipeline alive");
        }
        // The pipeline runs concurrently; wait (bounded) for some output
        // to arrive before the stream has ended.
        let mut early = Vec::new();
        for _ in 0..1_000 {
            early.extend(handle.try_drain());
            if !early.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!early.is_empty(), "no output while the stream is open");
        drop(push);
        let rest = handle.drain_to_end();
        assert_eq!(early.len() + rest.len(), 100);
    }

    #[test]
    fn operator_death_eventually_surfaces_to_push() {
        /// An operator that dies on its first item.
        struct Exploder;
        impl Operator<u32, u32> for Exploder {
            fn on_item(&mut self, _item: StreamItem<u32>, _out: &mut dyn FnMut(StreamItem<u32>)) {
                panic!("operator died (expected in this test)");
            }
        }
        let (push, flow) = Flow::source_push(10);
        let _handle = flow.then(1, |_| Exploder).into_handle();
        let mut got_err = false;
        for i in 0..1_000_000i64 {
            let item = StreamItem::new(StratumId(0), EventTime::from_millis(i), 1u32);
            if push.push(item).is_err() {
                got_err = true;
                break;
            }
        }
        assert!(got_err, "push never reported the dead pipeline");
    }

    #[test]
    fn push_into_dead_pipeline_reports_disconnect() {
        // A source whose feed receiver is gone (the source thread died)
        // must surface as a Disconnected error, not a panic.
        let (tx, rx) = crossbeam::channel::bounded::<StreamItem<u32>>(4);
        drop(rx);
        let push = PushSource { tx };
        let err = push
            .push(StreamItem::new(
                StratumId(0),
                EventTime::from_millis(0),
                1u32,
            ))
            .unwrap_err();
        assert!(matches!(err, sa_types::SaError::Disconnected(_)));
    }

    #[test]
    #[should_panic(expected = "stage parallelism must be positive")]
    fn zero_parallelism_rejected() {
        let (_source, flow) = Flow::source_push(10);
        let _ = flow.then(0, |_| Identity);
    }

    #[test]
    #[should_panic(expected = "watermark interval must be positive")]
    fn zero_watermark_interval_rejected() {
        let _ = Flow::<u32>::source_push(0);
    }
}
