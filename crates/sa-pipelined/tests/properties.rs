//! Property-based tests for the pipelined engine: multiset preservation,
//! stage composition, and watermark-driven window correctness across
//! arbitrary stream shapes and topologies, all on the push-fed path the
//! `streamapprox` engine uses.

use proptest::prelude::*;
use sa_pipelined::{Flow, FlowHandle, Operator};
use sa_types::{EventTime, StratumId, StreamItem};
use std::collections::BTreeMap;

fn stream(values: &[(u32, i64)]) -> Vec<StreamItem<u32>> {
    // values: (stratum, time-gap) pairs turned into an ordered stream.
    let mut t = 0i64;
    values
        .iter()
        .enumerate()
        .map(|(i, &(s, gap))| {
            t += gap;
            StreamItem::new(StratumId(s % 5), EventTime::from_millis(t), i as u32)
        })
        .collect()
}

/// Builds a push-fed flow with `build`, pushes `input` with a watermark
/// at its first item and whenever event time has advanced by
/// `watermark_interval_ms` since the last one, ends it, and returns
/// everything the sink received.
fn run<O: Send + 'static>(
    input: Vec<StreamItem<u32>>,
    watermark_interval_ms: i64,
    build: impl FnOnce(Flow<u32>) -> FlowHandle<O>,
) -> Vec<StreamItem<O>> {
    let (mut source, flow) = Flow::source_push();
    let sink = build(flow);
    let mut last_wm: Option<EventTime> = None;
    for item in input {
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

/// An element-wise operator from a closure.
struct MapOp<F>(F);
impl<I, O, F: FnMut(I) -> O + Send> Operator<I, O> for MapOp<F> {
    fn on_item(&mut self, item: StreamItem<I>, out: &mut dyn FnMut(StreamItem<O>)) {
        out(item.map(&mut self.0));
    }
}

/// A tumbling-window counter: emits `(window index, count)` once the
/// watermark passes a window's end, and everything left at the final
/// `EventTime::MAX` watermark.
struct Counter {
    window_ms: i64,
    counts: BTreeMap<i64, u64>,
}

impl Counter {
    fn new(window_ms: i64) -> Self {
        Counter {
            window_ms,
            counts: BTreeMap::new(),
        }
    }
}

impl Operator<u32, (i64, u64)> for Counter {
    fn on_item(&mut self, item: StreamItem<u32>, _out: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
        let w = item.time.as_millis().div_euclid(self.window_ms);
        *self.counts.entry(w).or_default() += 1;
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut dyn FnMut(StreamItem<(i64, u64)>)) {
        let due: Vec<i64> = self
            .counts
            .keys()
            .copied()
            .filter(|w| (w + 1) * self.window_ms <= wm.as_millis() || wm == EventTime::MAX)
            .collect();
        for w in due {
            let c = self.counts.remove(&w).expect("listed");
            out(StreamItem::new(
                StratumId(0),
                EventTime::from_millis(((w + 1) * self.window_ms).min(i64::MAX - 1)),
                (w, c),
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the parallelism and watermark cadence, every item reaches
    /// the sink exactly once.
    #[test]
    fn multiset_preserved_through_any_stage(
        values in proptest::collection::vec((0u32..5, 0i64..50), 0..400),
        parallelism in 1usize..5,
        wm_interval in 1i64..500,
    ) {
        let input = stream(&values);
        let n = input.len();
        let out = run(input, wm_interval, |f| f.then(parallelism, |_| Identity).into_handle());
        let mut ids: Vec<u32> = out.iter().map(|i| i.value).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);
        prop_assert_eq!(out.len(), n);
    }

    /// Two chained stages compose like function composition.
    #[test]
    fn stages_compose(
        values in proptest::collection::vec((0u32..5, 0i64..50), 0..300),
        p1 in 1usize..4,
        p2 in 1usize..4,
    ) {
        let input = stream(&values);
        let expected: i64 = input.iter().map(|i| (i64::from(i.value) + 7) * 3).sum();
        let out = run(input, 100, |f| {
            f.then(p1, |_| MapOp(|v: u32| i64::from(v) + 7))
                .then(p2, |_| MapOp(|v: i64| v * 3))
                .into_handle()
        });
        let got: i64 = out.iter().map(|i| i.value).sum();
        prop_assert_eq!(got, expected);
    }

    /// A tumbling-window counter over the pipeline counts every item
    /// exactly once, for any watermark cadence.
    #[test]
    fn windowed_counts_are_exhaustive(
        values in proptest::collection::vec((0u32..5, 0i64..40), 1..400),
        wm_interval in 1i64..300,
        window_ms in 1i64..500,
    ) {
        let input = stream(&values);
        let n = input.len() as u64;
        let out = run(input, wm_interval, move |f| {
            f.then(1, move |_| Counter::new(window_ms)).into_handle()
        });
        let total: u64 = out.iter().map(|i| i.value.1).sum();
        prop_assert_eq!(total, n);
        // No window reported twice.
        let mut windows: Vec<i64> = out.iter().map(|i| i.value.0).collect();
        let len = windows.len();
        windows.sort_unstable();
        windows.dedup();
        prop_assert_eq!(windows.len(), len);
    }

    /// The engine's shape — push → `then(w)` → `then(1, windowed)` — with
    /// the windowed stage fed by `w` producers: it may close a window only
    /// once the minimum watermark across them has passed, so each window
    /// is reported once, with its exact count.
    #[test]
    fn windowed_counts_are_exact_behind_a_parallel_stage(
        values in proptest::collection::vec((0u32..5, 0i64..40), 1..400),
        workers in 1usize..5,
        wm_interval in 1i64..300,
        window_ms in 1i64..500,
    ) {
        let input = stream(&values);
        let mut expected: BTreeMap<i64, u64> = BTreeMap::new();
        for item in &input {
            *expected.entry(item.time.as_millis().div_euclid(window_ms)).or_default() += 1;
        }
        let out = run(input, wm_interval, move |f| {
            f.then(workers, |_| Identity)
                .then(1, move |_| Counter::new(window_ms))
                .into_handle()
        });
        let mut got: BTreeMap<i64, u64> = BTreeMap::new();
        for item in &out {
            let (w, c) = item.value;
            prop_assert!(got.insert(w, c).is_none(), "window {} reported twice", w);
        }
        prop_assert_eq!(got, expected);
    }
}
