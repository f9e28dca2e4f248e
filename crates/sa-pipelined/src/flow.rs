//! Topology construction and execution: operator instances on threads,
//! bounded channels, round-robin exchanges and watermark alignment.

use crate::message::{Signal, Tagged};
use crate::operator::Operator;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use sa_types::{EventTime, SaError, StreamItem};
use std::thread::JoinHandle;

/// Capacity of every inter-operator channel. Bounded channels give the
/// pipeline natural backpressure: a slow operator stalls its producers,
/// the push source's caller included, instead of buffering unboundedly.
const CHANNEL_CAPACITY: usize = 256;

/// Records per network buffer (the Flink-style record batch amortizing
/// channel synchronization; watermarks flush partial buffers immediately).
const RECORD_BUFFER: usize = 64;

/// One producer's outgoing side: deals records round-robin over the next
/// stage's instances (Flink's `rebalance`), starting at instance
/// `producer_idx % n` so parallel producers do not all begin on the same
/// one.
#[derive(Debug)]
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
        let wm = match signal {
            Signal::Items(batch) => {
                let routing_ref = &mut routing;
                for item in batch {
                    op.on_item(item, &mut |out| routing_ref.send_item(out));
                }
                continue;
            }
            Signal::Watermark(wm) => wm,
            // An ended producer holds event time back no longer.
            Signal::End if !ended[p] => {
                ended[p] = true;
                ended_count += 1;
                EventTime::MAX
            }
            Signal::End => continue,
        };
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
    let routing_ref = &mut routing;
    op.on_end(&mut |out| routing_ref.send_item(out));
    routing.broadcast_end();
}

type SpawnFn<T> = Box<dyn FnOnce(Vec<Sender<Tagged<T>>>) -> Vec<JoinHandle<()>> + Send>;

/// The feeding half of a push-driven source stage (see
/// [`Flow::source_push`]): items pushed here enter the dataflow live, on
/// the pushing thread, dealt round-robin over the first stage's instances
/// from instance 0; the only watermarks are the ones the caller hands it.
///
/// Dropping the handle ends the stream: the source emits a final
/// `EventTime::MAX` watermark and end-of-stream, flushing every window
/// still open downstream.
#[derive(Debug)]
pub struct PushSource<T> {
    /// Delivers the first stage's inputs once [`Flow::then`] wires it.
    wiring: Receiver<Vec<Sender<Tagged<T>>>>,
    routing: Option<Routing<T>>,
}

impl<T> PushSource<T> {
    /// Feeds one item into the dataflow. Records travel in small buffers,
    /// so this blocks only when a full buffer meets a saturated pipeline
    /// (backpressure), or while the first stage is not wired yet.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if the dataflow was dropped unbuilt or has
    /// shut down (e.g. an operator panicked). A dead stage is noticed at
    /// the next record-buffer flush — a full buffer or a
    /// [`watermark`](PushSource::watermark) — so pushes before it return
    /// `Ok`.
    pub fn push(&mut self, item: StreamItem<T>) -> Result<(), SaError> {
        self.send(|routing| routing.send_item(item))
    }

    /// Marks event-time progress: every later item has `time >= t`. The
    /// buffered records are flushed first, so it never overtakes them.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] under the same conditions as
    /// [`push`](PushSource::push).
    pub fn watermark(&mut self, t: EventTime) -> Result<(), SaError> {
        self.send(|routing| routing.broadcast_watermark(t))
    }

    /// Runs `send` on the routing to the first stage, once it is wired,
    /// and reports whether that stage is still alive.
    fn send(&mut self, send: impl FnOnce(&mut Routing<T>)) -> Result<(), SaError> {
        if self.routing.is_none() {
            let wired = self.wiring.recv().ok();
            self.routing = wired.map(|senders| Routing::new(senders, 0));
        }
        if let Some(routing) = &mut self.routing {
            send(routing);
            if !routing.dead {
                return Ok(());
            }
        }
        Err(SaError::Disconnected("pipelined push source"))
    }
}

impl<T> Drop for PushSource<T> {
    fn drop(&mut self) {
        // A source never used sent nothing: dropping its wiring leaves the
        // first stage without producers, which ends the stream as well.
        if let Some(routing) = &mut self.routing {
            routing.broadcast_watermark(EventTime::MAX);
            routing.broadcast_end();
        }
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
/// Stages spawn as the topology is built (each `then` call wires the
/// upstream stage — the push source included — and starts its threads);
/// [`Flow::into_handle`] attaches the sink. Bounded channels keep memory
/// finite while construction races execution.
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
/// let (mut source, flow) = Flow::source_push();
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
    /// [`PushSource`] handle, on the caller's thread. Wire the first stage
    /// ([`then`](Flow::then)) before pushing: the first push waits for it.
    pub fn source_push() -> (PushSource<T>, Flow<T>) {
        let (wire, wiring) = bounded(1);
        let flow = Flow {
            parallelism: 1,
            spawn: Box::new(move |senders| {
                let _ = wire.send(senders);
                Vec::new()
            }),
        };
        let source = PushSource {
            wiring,
            routing: None,
        };
        (source, flow)
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

    /// Builds a push-fed flow with `build`, pushes `stream` with a
    /// watermark at its first item and whenever event time has advanced by
    /// `watermark_interval_ms` since the last one, ends it, and returns
    /// everything the sink received.
    fn run<O: Send + 'static>(
        stream: Vec<StreamItem<u32>>,
        watermark_interval_ms: i64,
        build: impl FnOnce(Flow<u32>) -> FlowHandle<O>,
    ) -> Vec<StreamItem<O>> {
        let (mut source, flow) = Flow::source_push();
        let sink = build(flow);
        let mut last_wm: Option<EventTime> = None;
        for item in stream {
            if last_wm.map_or(true, |wm| {
                item.time.millis_since(wm) >= watermark_interval_ms
            }) {
                last_wm = Some(item.time);
                source.watermark(item.time).expect("pipeline alive");
            }
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
        let (mut push, flow) = Flow::source_push();
        let mut handle = flow.then(1, |_| Identity).into_handle();
        for item in items(100) {
            push.push(item).expect("pipeline alive");
        }
        push.watermark(EventTime::from_millis(100))
            .expect("pipeline alive");
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
        let (mut push, flow) = Flow::source_push();
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
        // A dataflow dropped before any stage was built never wires the
        // source: the push is refused at once, not a panic or a hang.
        let (push, flow) = Flow::<u32>::source_push();
        drop(flow);
        assert!(matches!(
            pushed_within_a_second(push, 1),
            Some(Err(SaError::Disconnected(_)))
        ));
    }

    #[test]
    fn push_into_a_dropped_dataflow_reports_disconnect() {
        // The first stage was wired, then the dataflow dropped before it
        // ran: the death surfaces at the first record-buffer flush.
        let (push, flow) = Flow::<u32>::source_push();
        drop(flow.then(2, |_| Identity));
        assert!(matches!(
            pushed_within_a_second(push, 2 * RECORD_BUFFER),
            Some(Err(SaError::Disconnected(_)))
        ));
    }

    /// Pushes up to `n` items into `push` on another thread and returns
    /// the first error — or `Ok` once all are in — unless that takes over
    /// a second (a hang).
    fn pushed_within_a_second(mut push: PushSource<u32>, n: usize) -> Option<Result<(), SaError>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = (0..n as i64).try_for_each(|t| {
                push.push(StreamItem::new(StratumId(0), EventTime::from_millis(t), 1))
            });
            let _ = tx.send(result);
        });
        rx.recv_timeout(std::time::Duration::from_secs(1)).ok()
    }

    #[test]
    #[should_panic(expected = "stage parallelism must be positive")]
    fn zero_parallelism_rejected() {
        let (_source, flow) = Flow::source_push();
        let _ = flow.then(0, |_| Identity);
    }
}
